"""Explicit Runge–Kutta integrators of order 3, 5 and 8.

The paper varies "the Runge-Kutta methods order" of the airdrop simulator
between the 3rd, 5th and 8th orders "which correspond to the values
provided by the SciPy library" — i.e. the Bogacki–Shampine RK23 pair, the
Dormand–Prince RK45 (DOPRI5) pair and Hairer's DOP853. We implement the
propagating solution of all three from their Butcher tableaus (the DOP853
coefficients are the published Hairer, Nørsett & Wanner values).

:meth:`ButcherTableau.step` advances one fixed step; the per-step work is
exactly ``n_stages`` right-hand-side evaluations, which is the quantity
the cluster cost model charges for (order 3 → 3 stages, order 5 → 6,
order 8 → 12).

A step runs over the trailing state axis: ``y`` is one state ``(n,)`` or
a batch ``(N, n)`` with a correspondingly batched ``rhs``, through the
same code. The stage derivatives live stage-first in memory, and each
stage sum reads them through a view with the stage axis last, so every
state is reduced by the same BLAS matrix-vector kernel, summing over the
stages in the same order whatever the batch holds: row ``i`` of a batched
step is bit-identical to stepping state ``i`` alone. (A contiguous
stage-last buffer would send the sums to BLAS's other matrix-vector
kernel, whose dot products round differently in the last bit.) The loop
over stages is irreducible, the loop over state dimensions and rows is
not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ButcherTableau",
    "RK23",
    "DOPRI5",
    "DOP853",
    "get_integrator",
    "available_orders",
]

RHS = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ButcherTableau:
    """An explicit Runge–Kutta method defined by its Butcher tableau.

    Attributes
    ----------
    name:
        Human-readable method name.
    order:
        Order of the propagating solution.
    a, b, c:
        Tableau coefficients; ``a`` is strictly lower triangular.
    """

    name: str
    order: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    #: ``(c_s, a[s, :s])`` of every stage after the first, looked up once
    #: here rather than sliced on every stage of every step
    _later_stages: tuple[tuple[float, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        if a.shape != (b.size, b.size):
            raise ValueError("A must be square with side len(b)")
        if c.shape != b.shape:
            raise ValueError("b and c must have the same length")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("explicit RK requires strictly lower-triangular A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(
            self, "_later_stages", tuple((float(c[s]), a[s, :s].copy()) for s in range(1, b.size))
        )

    @property
    def n_stages(self) -> int:
        """Right-hand-side evaluations per step (the compute-cost unit)."""
        return int(self.b.size)

    def stages(self, rhs: RHS, t: float, y: np.ndarray, h: float) -> np.ndarray:
        """Evaluate all stage derivatives ``K``, shape ``(*y.shape, n_stages)``.

        ``K`` is stored stage-first and returned as a view with the stage
        axis last, the layout every stage sum reads it in.
        """
        y = np.asarray(y, dtype=np.float64)
        k = np.empty((self.n_stages, *y.shape), dtype=np.float64)
        k_last = k.transpose(*range(1, k.ndim), 0)
        k[0] = rhs(t, y)
        for s, (c_s, a_s) in enumerate(self._later_stages, start=1):
            k[s] = rhs(t + c_s * h, y + h * (k_last[..., :s] @ a_s))
        return k_last

    def step(self, rhs: RHS, t: float, y: np.ndarray, h: float) -> np.ndarray:
        """Advance ``y`` (one state or a batch of rows) by one step of size ``h``."""
        y = np.asarray(y, dtype=np.float64)
        return y + h * (self.stages(rhs, t, y, h) @ self.b)

    def __repr__(self) -> str:
        return f"ButcherTableau({self.name}, order={self.order}, stages={self.n_stages})"


# --------------------------------------------------------------------------
# Order 3: Bogacki–Shampine RK23 (scipy's ``RK23``). The propagating
# solution is third order with 3 distinct stage evaluations.
# --------------------------------------------------------------------------

RK23 = ButcherTableau(
    name="RK23",
    order=3,
    c=np.array([0.0, 1 / 2, 3 / 4]),
    a=np.array(
        [
            [0.0, 0.0, 0.0],
            [1 / 2, 0.0, 0.0],
            [0.0, 3 / 4, 0.0],
        ]
    ),
    b=np.array([2 / 9, 1 / 3, 4 / 9]),
)

# --------------------------------------------------------------------------
# Order 5: Dormand–Prince DOPRI5 (scipy's ``RK45``). Six distinct stages
# propagate the fifth-order solution.
# --------------------------------------------------------------------------

DOPRI5 = ButcherTableau(
    name="DOPRI5",
    order=5,
    c=np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]),
    a=np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
            [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
            [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
            [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
            [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
        ]
    ),
    b=np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)

# --------------------------------------------------------------------------
# Order 8: Hairer's DOP853 (scipy's ``DOP853``), 12 stages. Coefficients
# are the published values from Hairer, Nørsett & Wanner, "Solving Ordinary
# Differential Equations I".
# --------------------------------------------------------------------------

_DOP853_C = [
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
]

_DOP853_A = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.05260015195876773, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0197250569845379, 0.0591751709536137, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.02958758547680685, 0.0, 0.08876275643042054, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792, 0.0, 0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996, 0.0, 0.0, 0.0, 0.0],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627, 0.0, 0.0, 0.0],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196, 0.0, 0.0],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636, 0.0],
]

_DOP853_B = [
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
]

DOP853 = ButcherTableau(
    name="DOP853",
    order=8,
    c=np.array(_DOP853_C),
    a=np.array(_DOP853_A),
    b=np.array(_DOP853_B),
)

_BY_ORDER: dict[int, ButcherTableau] = {3: RK23, 5: DOPRI5, 8: DOP853}


def available_orders() -> list[int]:
    """Runge–Kutta orders the simulator supports (the paper's {3, 5, 8})."""
    return sorted(_BY_ORDER)


def get_integrator(order: int) -> ButcherTableau:
    """Look up the tableau for a paper RK order (3, 5 or 8)."""
    try:
        return _BY_ORDER[int(order)]
    except (KeyError, ValueError):
        raise ValueError(
            f"unsupported Runge-Kutta order {order!r}; available: {available_orders()}"
        ) from None
