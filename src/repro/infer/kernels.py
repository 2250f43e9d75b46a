"""Unpickling shim for engine snapshots written before the single-engine
inference path: their ``kernel_plans`` entries pickle ``GemmPlan``
objects by this module path.  Restore drops the plans."""


class GemmPlan:
    """Data-only stand-in for a retired GEMM block layout."""

    __slots__ = ("mb", "nb")
