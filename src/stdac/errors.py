"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor dimensions are incompatible; the message names the offending axis."""


class ConfigurationError(ValueError):
    """A model or experiment configuration is invalid."""


class IdxFormatError(ValueError):
    """An IDX file is malformed (bad magic, truncated payload, count mismatch)."""


class CheckpointError(ValueError):
    """A parameter checkpoint file is malformed or does not match the model."""


class NoSelectedPairs(RuntimeError):
    """Every pair in the batch fell between the selection thresholds."""


class GradientNaN(ArithmeticError):
    """A NaN appeared in a gradient buffer during backpropagation."""


class GraphReleased(RuntimeError):
    """A backward sweep reached a node that an earlier sweep already released."""
