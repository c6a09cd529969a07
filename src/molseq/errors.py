"""Exception types shared across the tensor engine, losses and metrics."""


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""

    def __init__(self, op: str, shapes) -> None:
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {self.shapes}")


class NonFiniteValue(ArithmeticError):
    """An operation produced NaN or Inf."""

    def __init__(self, op: str) -> None:
        self.op = op
        super().__init__(f"{op}: result contains NaN or Inf")


class NonScalarLoss(ValueError):
    """backward() was called on a tensor that is not a scalar."""


class RepeatedBackward(RuntimeError):
    """backward() was called twice on the same graph without a reset."""


class LabelOutOfRange(IndexError):
    """A class label exceeds the configured number of classes."""

    def __init__(self, label: int, num_classes: int) -> None:
        self.label = label
        self.num_classes = num_classes
        super().__init__(f"label {label} out of range for {num_classes} classes")


class DegenerateBatch(ValueError):
    """A batch label has no positive or no negative for triplet mining."""
