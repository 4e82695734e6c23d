"""Built-in target models used by the fixtures and the verification suites."""

from __future__ import annotations

from .gw import TargetModel


def point_model() -> TargetModel:
    """One degree-0 class, eta = (1), <111> = 1."""
    m = TargetModel("point", classes=[("e", 0)], unit="e", eta=[[1]])
    m.add_primary(m.key([("e", 0)] * 3), 1)
    return m


def two_point_model() -> TargetModel:
    """Rank-2 Frobenius toy of two points in the basis {1, x}.

    eta = diag(2,2), <111> = <1xx> = 2, <11x> = <xxx> = 0; the quantum
    product is x*x = 1, which satisfies associativity by direct check.
    """
    m = TargetModel("twopoint", classes=[("1", 0), ("x", 0)], unit="1",
                    eta=[[2, 0], [0, 2]])
    m.add_primary(m.key([("1", 0)] * 3), 2)
    m.add_primary(m.key([("1", 0), ("x", 0), ("x", 0)]), 2)
    m.add_primary(m.key([("1", 0), ("1", 0), ("x", 0)]), 0)
    m.add_primary(m.key([("x", 0)] * 3), 0)
    return m


def projective_line_model() -> TargetModel:
    """Degree-2 class pt with one curve class, c1 = 2; <1 1 pt>_0 = 1,
    <pt pt pt>_1 = 1.  Divisor data: pt cup 1 = pt, pt cup pt = 0."""
    m = TargetModel(
        "p1",
        classes=[("1", 0), ("pt", 2)],
        unit="1",
        eta=[[0, 1], [1, 0]],
        h2_rank=1,
        chern=(2,),
        divisor="pt",
        divisor_cup={"1": {"pt": 1}, "pt": {}},
        divisor_pairing=(1,),
    )
    m.add_primary(m.key([("1", 0), ("1", 0), ("pt", 0)], (0,)), 1)
    m.add_primary(m.key([("pt", 0)] * 3, (1,)), 1)
    return m


BUILTIN_MODELS = {
    "point": point_model,
    "twopoint": two_point_model,
    "p1": projective_line_model,
}
