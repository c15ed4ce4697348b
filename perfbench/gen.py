"""Seeded instance generator for the benchmark, independent of ``qsylv``.

Every matrix is built here with numpy in complex-pair form: a quaternion
matrix ``A = A1 + A2*j`` is the pair ``(A1, A2)`` of complex arrays, and

    (A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j.

Ranks, planted solutions and inconsistent perturbations are all made here, so
a change to ``qsylv.sampling`` or to ``QMatrix`` arithmetic cannot change what
the benchmark measures.  The program only ever receives the generated numbers,
through ``QMatrix.from_rows`` or through JSON files written by this module.

Instance ``k`` of a workload draws from two SplitMix64 streams of its own,
so it does not depend on how many instances a run uses: its shapes and
planted ranks come from a stream keyed by the workload tag and a shape index
alone, and its entries, planted solution and perturbation from one keyed by
``(seed, tag, k)``.  Every seed thus runs the same mix of shapes with
different numbers, so the spread between seeds measures the program and the
host, not a luckier shape mix.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

#: The ten equation kinds, in the program's declaration order, with the
#: coefficient slots each one takes (missing two-term slots are identities).
KINDS = (
    ("gen-sylvester", ("a1", "b1", "a2", "b2")),
    ("one-left", ("a1", "a2", "b2")),
    ("one-right", ("b1", "a2", "b2")),
    ("stein", ("a2", "b2")),
    ("sylvester", ("a1", "b2")),
    ("sylvester-mirror", ("b1", "a2")),
    ("two-left", ("a1", "a2")),
    ("two-right", ("b1", "b2")),
    ("lyapunov-like", ("a1", "b2")),
    ("lyapunov-star", ("a1",)),
)
KIND_SLOTS = dict(KINDS)
TWO_TERM_KINDS = tuple(name for name, _ in KINDS[:8])


def mix64(z: int) -> int:
    """The SplitMix64 output function."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream; ``uniform_signed`` draws a block at once with numpy."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        return mix64(self.state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` by rejection (unbiased)."""
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return lo + draw % span

    def uniform_signed(self, count: int) -> np.ndarray:
        """``count`` floats uniform in ``[-1, 1)``, 53 bits each."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(GAMMA)
        self.state = (self.state + count * GAMMA) & MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * (2.0 * 2.0 ** -53) - 1.0


def stream(*key) -> SplitMix64:
    """An independent stream for ``key``, e.g. ``(seed, tag, index)``."""
    digest = hashlib.sha256("/".join(map(str, key)).encode()).digest()
    return SplitMix64(mix64(int.from_bytes(digest[:8], "little")))


def streams(seed: int, tag: str, index: int, shape_index: int) -> tuple[SplitMix64, SplitMix64]:
    """The (shape, value) streams of instance ``index`` of workload ``tag``;
    instances with the same ``shape_index`` share their shapes and ranks."""
    return stream("shape", tag, shape_index), stream(seed, tag, index)


# -- quaternion matrices as complex pairs ------------------------------------------


@dataclass(frozen=True)
class QArray:
    """A quaternion matrix ``p + q*j`` held as two complex arrays."""

    p: np.ndarray
    q: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape

    def __matmul__(self, other: "QArray") -> "QArray":
        return QArray(self.p @ other.p - self.q @ other.q.conj(),
                      self.p @ other.q + self.q @ other.p.conj())

    def __add__(self, other: "QArray") -> "QArray":
        return QArray(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "QArray") -> "QArray":
        return QArray(self.p - other.p, self.q - other.q)

    def scale(self, factor: float) -> "QArray":
        return QArray(self.p * factor, self.q * factor)

    @property
    def H(self) -> "QArray":
        """Conjugate transpose: ``(p + q j)* = p^H - q^T j``."""
        return QArray(self.p.conj().T, -self.q.T)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.p) ** 2) + np.sum(np.abs(self.q) ** 2)))

    def components(self) -> np.ndarray:
        """Real ``(rows, cols, 4)`` array of ``w, x, y, z``."""
        return np.stack([self.p.real, self.p.imag, self.q.real, self.q.imag], axis=-1)

    @staticmethod
    def from_components(comps: np.ndarray) -> "QArray":
        comps = np.asarray(comps, dtype=np.float64)
        return QArray(comps[..., 0] + 1j * comps[..., 1], comps[..., 2] + 1j * comps[..., 3])

    @staticmethod
    def identity(n: int) -> "QArray":
        return QArray(np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128))

    def real_vector(self) -> np.ndarray:
        return self.components().reshape(-1)


def random_qarray(rng: SplitMix64, rows: int, cols: int) -> QArray:
    return QArray.from_components(rng.uniform_signed(rows * cols * 4).reshape(rows, cols, 4))


def planted_rank(rng: SplitMix64, rows: int, cols: int, r: int) -> QArray:
    """A ``rows x cols`` matrix of rank ``r`` (almost surely), as a product of factors."""
    return random_qarray(rng, rows, r) @ random_qarray(rng, r, cols)


# -- equation instances ---------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One equation instance with the facts its construction fixes.

    ``coeffs`` holds the kind's own slots only; ``x1``/``x2`` are the planted
    solution (``None`` for an inconsistent instance).
    """

    kind: str
    coeffs: dict
    c: QArray
    consistent: bool
    x1: Optional[QArray]
    x2: Optional[QArray]

    def full_slots(self) -> dict:
        """All four two-term slots, identity-filled (two-term kinds only)."""
        return full_slots(self.coeffs, *self.c.shape)

    def lhs(self, x1: QArray, x2: Optional[QArray]) -> QArray:
        """The left-hand side at ``(x1, x2)``, evaluated with numpy."""
        return lhs(self.kind, self.coeffs, *self.c.shape, x1, x2)

    def digest_into(self, h) -> None:
        h.update(f"{self.kind}|{int(self.consistent)}".encode())
        for name in ("a1", "b1", "a2", "b2"):
            if name in self.coeffs:
                h.update(name.encode())
                h.update(self.coeffs[name].components().astype("<f8").tobytes())
        for label, mat in (("c", self.c), ("x1", self.x1), ("x2", self.x2)):
            if mat is not None:
                h.update(label.encode())
                h.update(mat.components().astype("<f8").tobytes())


def full_slots(coeffs: dict, m: int, s: int) -> dict:
    eye = {"a1": m, "b1": s, "a2": m, "b2": s}
    return {name: coeffs[name] if name in coeffs else QArray.identity(n)
            for name, n in eye.items()}


def lhs(kind: str, coeffs: dict, m: int, s: int, x1: QArray, x2: Optional[QArray]) -> QArray:
    """The left-hand side of a ``kind`` equation with right-hand side ``m x s``."""
    if kind == "lyapunov-like":
        return coeffs["a1"] @ x1 + x1.H @ coeffs["b2"]
    if kind == "lyapunov-star":
        return coeffs["a1"] @ x1 + x1.H @ coeffs["a1"].H
    f = full_slots(coeffs, m, s)
    return f["a1"] @ x1 @ f["b1"] + f["a2"] @ x2 @ f["b2"]


def _coefficient(shape: SplitMix64, values: SplitMix64, rows: int, cols: int) -> QArray:
    return planted_rank(values, rows, cols, shape.randint(1, min(rows, cols)))


def _shapes(shape: SplitMix64, values: SplitMix64, kind: str, lo: int, hi: int,
            stein_full_b2: bool) -> tuple[dict, int, int]:
    """Random coefficient matrices of ``kind`` with every dimension in ``[lo, hi]``.

    With ``stein_full_b2`` a Stein ``b2`` has rank ``s``, its column count, so
    ``c L_b2 = 0`` for every ``c``; otherwise its rank is random like every
    other coefficient's.
    """
    def d() -> int:
        return shape.randint(lo, hi)

    m, s = d(), d()
    if kind in ("lyapunov-like", "lyapunov-star"):
        a = _coefficient(shape, values, m, d())
        coeffs = {"a1": a, "b2": a.H} if kind == "lyapunov-like" else {"a1": a}
        return coeffs, m, m
    coeffs = {}
    for name in KIND_SLOTS[kind]:
        if kind == "stein" and name == "b2" and stein_full_b2:
            coeffs[name] = planted_rank(values, shape.randint(s, hi), s, s)
            continue
        inner = d()
        if name.startswith("a"):
            coeffs[name] = _coefficient(shape, values, m, inner)
        else:
            coeffs[name] = _coefficient(shape, values, inner, s)
    return coeffs, m, s


def _plant(rng: SplitMix64, kind: str, coeffs: dict, m: int, s: int) -> Instance:
    """Plant an unrestricted random solution and form the right-hand side.

    For Stein this deliberately does not confine ``x1`` to the row space of
    ``b2``: every right-hand side is solvable there (``x1 = c, x2 = 0``).
    """
    if kind in TWO_TERM_KINDS:
        f = full_slots(coeffs, m, s)
        x1 = random_qarray(rng, f["a1"].shape[1], f["b1"].shape[0])
        x2 = random_qarray(rng, f["a2"].shape[1], f["b2"].shape[0])
    else:
        x1 = random_qarray(rng, coeffs["a1"].shape[1], m)
        x2 = None
    c = lhs(kind, coeffs, m, s, x1, x2)
    return Instance(kind, coeffs, c, True, x1, x2)


def consistent_instance(shape: SplitMix64, values: SplitMix64, kind: str, lo: int, hi: int,
                        stein_full_b2: bool = True) -> Instance:
    """A planted instance.  Stein ``b2`` has full column rank unless
    ``stein_full_b2`` is false: the program calls a consistent Stein instance
    inconsistent whenever ``c L_b2 != 0``, a known defect, so the timed
    workloads keep clear of that case and ``workloads.SteinProbe`` shows it."""
    coeffs, m, s = _shapes(shape, values, kind, lo, hi, stein_full_b2)
    return _plant(values, kind, coeffs, m, s)


def range_complement(inst: Instance) -> np.ndarray:
    """Orthonormal real basis (columns) of the complement of the two-term
    left-hand side's range, in the real coordinates of ``c``."""
    f = inst.full_slots()
    images = []
    for a, b in ((f["a1"], f["b1"]), (f["a2"], f["b2"])):
        rows, cols = a.shape[1], b.shape[0]
        units = np.eye(rows * cols * 4).reshape(-1, rows, cols, 4)
        x = QArray.from_components(units)  # every real unit direction of x at once
        images.append((a @ x @ b).components().reshape(len(units), -1))
    image = np.concatenate(images).T
    u, sv, _ = np.linalg.svd(image, full_matrices=True)
    rank = int(np.count_nonzero(sv > max(image.shape) * np.finfo(float).eps * sv[0]))
    return u[:, rank:]


def inconsistent_instance(shape: SplitMix64, values: SplitMix64, kind: str, lo: int, hi: int,
                          tries: int = 16) -> Instance:
    """A two-term instance whose right-hand side is pushed out of the solvable
    set by a random direction orthogonal to it, scaled to ``1 + |c|``.

    Coefficients are redrawn while they span every right-hand side; after
    ``tries`` such draws (always, for kinds like Stein whose free ``x1``
    spans everything) the last draw is returned consistent.
    """
    for _ in range(tries):
        base = consistent_instance(shape, values, kind, lo, hi)
        basis = range_complement(base)
        if basis.shape[1] == 0:
            continue
        direction = basis @ values.uniform_signed(basis.shape[1])
        norm = float(np.linalg.norm(direction))
        if norm < 1e-6:
            continue
        e = QArray.from_components(direction.reshape(*base.c.shape, 4))
        c = base.c + e.scale((1.0 + base.c.norm()) / norm)
        return Instance(kind, base.coeffs, c, False, None, None)
    return base


def dense_instance(rng: SplitMix64, deficient: bool) -> Instance:
    """The gen-sylvester shape ``c`` 6x6, ``a1`` 6x5, ``b1`` 5x6, ``a2`` 6x4,
    ``b2`` 4x6, at full rank or with every coefficient one rank short."""
    cut = 1 if deficient else 0
    coeffs = {
        "a1": planted_rank(rng, 6, 5, 5 - cut),
        "b1": planted_rank(rng, 5, 6, 5 - cut),
        "a2": planted_rank(rng, 6, 4, 4 - cut),
        "b2": planted_rank(rng, 4, 6, 4 - cut),
    }
    return _plant(rng, "gen-sylvester", coeffs, 6, 6)


# -- handing instances to the program -----------------------------------------------


def to_rows(mat: QArray, quaternion) -> list:
    """Nested rows of ``quaternion(w, x, y, z)`` for ``QMatrix.from_rows``."""
    comps = mat.components().tolist()
    return [[quaternion(*entry) for entry in row] for row in comps]


def matrix_json(mat: QArray) -> str:
    """The program's matrix JSON document, floats written with ``repr``
    (shortest round-trip form), so reading it back is exact."""
    rows, cols = mat.shape
    data = [[[float(v) for v in entry] for entry in row] for row in mat.components().tolist()]
    return json.dumps({"rows": rows, "cols": cols, "data": data}, separators=(", ", ": ")) + "\n"


def write_instance(inst: Instance, directory: str) -> dict:
    """Write one JSON file per slot of ``inst``; returns ``slot -> path``."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    slots = dict(inst.coeffs)
    slots["c"] = inst.c
    for name, mat in slots.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(matrix_json(mat))
        paths[name] = path
    return paths


def digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        inst.digest_into(h)
    return h.hexdigest()
