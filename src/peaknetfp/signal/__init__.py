"""Signal front end: audio I/O, time stretching, spectrograms, peak clouds."""
