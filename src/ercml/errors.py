"""Typed exceptions shared across the package.

Every error raised by library code is a subclass of :class:`ErcmlError`,
so callers (notably the CLI) can distinguish data/model failures from
programming errors.
"""

from __future__ import annotations


class ErcmlError(Exception):
    """Base class for all library errors."""


# --- corpus ---------------------------------------------------------------

class CountMismatch(ErcmlError):
    """Number of utterance segments differs from number of labels."""


class BadLabel(ErcmlError):
    """Label integer outside the 0..6 emotion label range."""


class MissingFile(ErcmlError):
    """Expected input file (corpus, store, config, replay) not found."""


class LineCountMismatch(ErcmlError):
    """Dialog-text file and label file have different line counts."""


class EmptyCorpus(ErcmlError):
    """Operation requires at least one dialog."""


class ZeroCount(ErcmlError):
    """A label included in weighting never occurs in the corpus."""


# --- embeddings -----------------------------------------------------------

class DimMismatch(ErcmlError):
    """Vector dimensions disagree."""


class DuplicateKey(ErcmlError):
    """Two embedding records share the same utterance key."""


class MalformedRecord(ErcmlError):
    """Embedding-store, replay-fixture or corpus record cannot be parsed."""


class EmptySequence(ErcmlError):
    """Operation requires a non-empty sequence."""


class MissingEmbedding(ErcmlError):
    """Embedding store has no vector for a required utterance key."""


class ProviderMismatch(ErcmlError):
    """Embedding store comes from another provider than the one a model
    was trained on."""


# --- encoder --------------------------------------------------------------

class ShapeMismatch(ErcmlError):
    """Tensor shapes inconsistent with the layer parameters."""


class BadHeadCount(ErcmlError):
    """Model dimension is not divisible by the head count."""


# --- triplets -------------------------------------------------------------

class ZeroVector(ErcmlError):
    """Cosine distance undefined for a zero-norm vector."""


class InsufficientDiversity(ErcmlError):
    """Pool lacks the label diversity required to form triplets."""


# --- classifier -----------------------------------------------------------

class BadTarget(ErcmlError):
    """Target label not in the classifier's label space."""


class EmptyBatch(ErcmlError):
    """Operation requires a non-empty batch."""


# --- metrics --------------------------------------------------------------

class LengthMismatch(ErcmlError):
    """Prediction and gold sequences have different lengths."""


class UnknownLabel(ErcmlError):
    """A label is not part of the declared label space."""


class NoNeutralInSpace(ErcmlError):
    """Neutral-excluding metric requested on a space without neutral."""


# --- llm harness ----------------------------------------------------------

class EmptyDialog(ErcmlError):
    """Prompt construction requires at least one utterance."""


class BadTemplate(ErcmlError):
    """Prompt template does not carry each placeholder exactly once."""


class EndpointFailure(ErcmlError):
    """Generation endpoint failed after the configured retries."""


# --- checkpoints / config -------------------------------------------------

class CheckpointError(ErcmlError):
    """Checkpoint file missing, unreadable, or of the wrong kind."""


class ConfigError(ErcmlError):
    """Run configuration file is malformed or inconsistent."""


# --- optimization ---------------------------------------------------------

class NonFinite(ErcmlError):
    """A gradient holds a NaN or an infinity."""


class NonContiguous(ErcmlError):
    """An optimizer parameter is not one C-contiguous block, so a flat view
    of it would be a copy and updates to it would be lost."""


class ReadOnlyParameter(ErcmlError):
    """An optimizer parameter is a read-only array, so it cannot be
    updated in place."""


class CompileError(ErcmlError):
    """The package's C kernels (the Adam update and GELU's gate) could not
    be built: no C compiler was found, or the compile failed."""
