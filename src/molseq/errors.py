"""Exception types shared across the tensor engine, losses, metrics and config readers."""


class ConfigError(ValueError):
    """A config file, synthetic spec, or a checkpoint's config echo or model config holds a bad key or value, or a
    text file molseq reads is not UTF-8."""


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""

    def __init__(self, op: str, shapes) -> None:
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {self.shapes}")


class NonFiniteValue(ArithmeticError):
    """An operation produced NaN or Inf; ``parameter`` names the model parameter that holds it, if one does.

    ``component`` names the training-loss term being built when it was raised (``msc``, ``triplet``,
    ``center``, ``cls`` or ``total``), if one was.
    """

    def __init__(self, op: str, parameter: str | None = None) -> None:
        self.op = op
        self.parameter = parameter
        self.component: str | None = None
        where = "" if parameter is None else f" (parameter {parameter!r})"
        super().__init__(f"{op}: result contains NaN or Inf{where}")


class NonScalarLoss(ValueError):
    """backward() was called on a tensor that is not a scalar."""


class RepeatedBackward(RuntimeError):
    """backward() was called twice on the same graph."""


class LabelOutOfRange(IndexError):
    """A class label lies outside ``[0, num_classes)``."""

    def __init__(self, label: int, num_classes: int) -> None:
        self.label = label
        self.num_classes = num_classes
        super().__init__(f"label {label} out of range for {num_classes} classes")


def check_labels(labels, num_classes: int) -> None:
    """Raise ``LabelOutOfRange`` naming the first label of the int array outside ``[0, num_classes)``."""
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)]
        raise LabelOutOfRange(int(bad[0]), num_classes)


class DegenerateBatch(ValueError):
    """A batch label has no positive or no negative for triplet mining."""
