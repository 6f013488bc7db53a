"""Exception hierarchy shared by all fedva modules."""


class FedvaError(Exception):
    """Base class for all fedva errors."""


# --- dataset loading / validation ---

class UnknownCause(FedvaError):
    """A cause label in a data file is not in the canonical cause list."""


class UnknownSymptomColumn(FedvaError):
    """CSV symptom columns do not match the symptom dictionary exactly."""


class DuplicateDeathId(FedvaError):
    """A death identifier occurs more than once within one dataset."""


class MalformedCell(FedvaError):
    """A cell value is outside the accepted grammar (Y, N, '.')."""


class InvalidIdentifiers(FedvaError):
    """A cause list or symptom dictionary is not UTF-8 or has too few, empty or duplicate ids."""


class NotFullyLabeled(FedvaError):
    """An operation requiring labels on every record saw an unlabeled one."""


# --- base-model training ---

class EmptyDataset(FedvaError):
    """Training requires at least one labeled record."""


class InvalidHyper(FedvaError):
    """A hyperparameter or sampler configuration violates its constraints."""


class DimensionMismatch(FedvaError):
    """Array shapes disagree with the model dimensions."""


# --- summary exchange ---

class InvalidSummary(FedvaError):
    """A model summary violates its numeric invariants (NaN, non-simplex, ...)."""


class ChecksumMismatch(FedvaError):
    """Stored checksum does not match the summary payload."""


class FingerprintMismatch(FedvaError):
    """Cause-list or symptom-dictionary fingerprints disagree."""


class SchemaVersionUnsupported(FedvaError):
    """The summary file format version is not understood by this reader."""


class DuplicateDomainId(FedvaError):
    """Two summaries, domains or columns of one tensor claim the same domain id."""


class EmptyRegistry(FedvaError):
    """A federation needs at least one source summary."""


# --- global ensemble ---

class IncompletePhi(FedvaError):
    """Some cause has no finite conditional likelihood from any model."""


class InvalidLabels(FedvaError):
    """Partial labels are out of range or unsupported by any model."""


class InsufficientLocalLabels(FedvaError):
    """Too few labeled deaths to train a local base model."""


class LocalModelMismatch(FedvaError):
    """A target-local model is missing, or not trained on the rows local_rows picks."""


class CountOverflow(FedvaError):
    """Held-out counts exceed the target size in the finite-sample adjustment."""


# --- calibration ---

class EmptyPredictions(FedvaError):
    """Calibration requires a non-empty prediction tensor."""


# --- metrics / scenarios ---

class NotASimplex(FedvaError):
    """A probability vector does not sum to one (or has negative entries)."""


class LengthMismatch(FedvaError):
    """Paired vectors have different lengths."""


class EmptyInput(FedvaError):
    """A metric was called on zero records."""


class EmptyCauseForResample(FedvaError):
    """A shift scenario must resample a cause with no exemplars."""


# --- generator / config ---

class InvalidGenerator(FedvaError):
    """A synthetic-data generator specification is inconsistent."""


class ConfigError(FedvaError):
    """A run configuration file is missing fields or references missing paths."""
