"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: usage problems exit 1, bad or
unreadable data exits 2, violated internal invariants exit 3.
"""
from __future__ import annotations


class FingerprintError(Exception):
    """Base class for everything raised on purpose by this package."""


class ConfigError(FingerprintError):
    """A config value is out of range, missing, or inconsistent."""


class DataError(FingerprintError):
    """Input data cannot be used: empty corpus, too-short clip, bad counts."""


class DecodeError(DataError):
    """A binary file failed its magic, checksum, kind, size or content checks."""


class ContractError(FingerprintError):
    """A documented call contract was violated (caller bug)."""


class ShapeError(ContractError):
    """An array had the wrong shape or dtype for the operation."""


class TrainingDiverged(FingerprintError):
    """Loss became non-finite; a diagnostic dump has been written."""
