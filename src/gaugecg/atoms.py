"""Finite atomic sets: linear minimization, support values, and gauges.

An atomic set is the convex hull of finitely many vectors ("atoms"),
optionally magnified by a positive scale. Three kinds are supported:

* ``signed-basis``     -- the 2d vectors  +/- C*e_k  (an l1 ball of radius C),
* ``hypercube-vertices`` -- the 2^d sign vectors  C*{-1,+1}^d  (an l_inf ball),
* ``explicit-list``    -- an arbitrary finite list of vectors.

The scale C is folded into the atom vectors themselves, so every quantity
computed here (support values, gauges, linear oracles) is already in the
magnified geometry and downstream code never multiplies by C again.
No set is symmetrized: the curvature constant L and the residual norms
are taken over the set's own atoms (the symmetrized set gives the same
constant, since they read only |<A p, A q>| and |<p, z>|).

Atom ids are stable integers:

* signed-basis: ids 0..d-1 are +C*e_k, ids d..2d-1 are -C*e_k;
* hypercube-vertices: bit k of the id set to 1 means coordinate k is -C
  (so the all-positive vertex has id 0);
* explicit-list: the row index in the given list.

Ties in the linear oracle always resolve to the lowest atom id.
"""

import io
import mmap

import numpy as np

from .errors import ContractViolationError, FileFormatError, InfeasibleGaugeError

SIGNED_BASIS = "signed-basis"
HYPERCUBE = "hypercube-vertices"
EXPLICIT = "explicit-list"

# Enumerating hypercube vertices (masks, score vectors, ...) is only allowed
# at desk scale; the implicit sign oracle below has no such limit.
_ENUM_LIMIT = 2 ** 22
# entries per block when _ActiveColumns fills its copy
_COPY_BLOCK = 2 ** 14


class _ActiveColumns:
    """The columns that the active atoms of a pruned signed basis touch,
    copied for AtomicSet._column_scores and cached on the mask.

    A screened run prunes dozens of times, the first copies at the full
    size of the features. One cache serves all the masks of a run
    (AtomMask.copy moves it along) and keeps its copy while the columns
    stay the same. A new copy goes into the memory of the old one unless it
    would fill less than half of it, so a run takes a few pieces of halving
    size, each an anonymous map rather than a heap block: a freed heap block
    that size stays with the process, and whether the next copy reused it
    depended on what else had landed in the heap meanwhile, which moved the
    peak memory of a process making several solves by a whole copy.
    """

    __slots__ = (
        "aset", "features", "ids", "cols", "pos", "neg_factor", "memory", "sub",
    )

    def __init__(self):
        self.aset = self.features = self.ids = None  # the rest set by _update

    def scores(self, aset, features, ids, v):
        if not (self.aset is aset and self.features is features and self.ids is ids):
            self._update(aset, features, ids)
        return self.neg_factor * (self.sub.T @ v)[self.pos]

    def _update(self, aset, features, ids):
        d = aset.dimension
        coords = ids % d
        cols = np.unique(coords)
        pos = np.searchsorted(cols, coords)
        neg_factor = np.where(ids < d, -aset.scale, aset.scale)
        same_source = self.aset is aset and self.features is features
        if not (same_source and np.array_equal(cols, self.cols)):
            n = features.shape[0]
            count = cols.size * n
            if not (same_source and count <= self.memory.size < 2 * count):
                self.aset = self.memory = self.sub = None  # unmap before mapping anew
                mapped = mmap.mmap(-1, max(count * features.itemsize, 1))
                self.memory = np.frombuffer(mapped, dtype=features.dtype, count=count)
            # features[:, cols] in its column-major layout, a block at a time
            rows = self.memory[:count].reshape(cols.size, n)
            width = max(1, _COPY_BLOCK // n)
            for start in range(0, cols.size, width):
                rows[start:start + width] = features[:, cols[start:start + width]].T
            self.sub = rows.T
        self.aset, self.features, self.ids = aset, features, ids
        self.cols, self.pos, self.neg_factor = cols, pos, neg_factor


def best_atom(ids, values):
    """The linear oracle's answer from its scores: ``(atom_id, value)`` of
    the first maximum of values, so with ids ascending ties go to the
    lowest id. Raises when there is no atom to choose."""
    if not len(ids):
        raise ContractViolationError("linear oracle over an empty mask")
    best = int(values.argmax())
    return int(ids[best]), float(values[best])


class AtomMask:
    """Activity mask over the atom ids of one set.

    Deactivation is one-way: ids can be switched off (idempotently) but
    never back on. A new mask stores nothing: every atom is active and it
    exists at any set size, hypercubes beyond enumeration included. The
    first deactivate materializes it, which is limited to enumerable sets.
    The ascending array of active ids is cached and refreshed only by
    deactivate, so it only ever shrinks; it is read-only. Copy moves the
    columns AtomicSet.oracle caches on the mask to the copy, where they
    serve until its first deactivate and then lend their memory to the next
    copy of the columns (_ActiveColumns).
    The solver owns and mutates the mask; everything else treats it as read-only.
    """

    def __init__(self, num_atoms):
        num_atoms = int(num_atoms)
        if num_atoms <= 0:
            raise ContractViolationError("mask needs at least one atom")
        self._num_atoms = num_atoms
        self._active = None  # None: every atom active, nothing stored
        self._ids = None
        self._columns = None  # see AtomicSet._column_scores

    @property
    def num_atoms(self):
        return self._num_atoms

    @property
    def is_full(self):
        """True until the first deactivate: every atom is active."""
        return self._active is None

    @property
    def active_count(self):
        if self._active is None:
            return self._num_atoms
        return int(self._ids.size)

    def active_ids(self):
        """Ascending active ids (a cached, read-only array)."""
        if self._ids is None:
            self._ids = np.arange(self._enumerable_count())
            self._ids.setflags(write=False)
        return self._ids

    def is_active(self, atom_id):
        """False for an id outside 0..num_atoms-1, whatever the state."""
        if not 0 <= atom_id < self._num_atoms:
            return False
        return self._active is None or bool(self._active[atom_id])

    def deactivate(self, ids):
        """Switch the given ids off. Already-inactive ids are ignored; an id
        outside 0..num_atoms-1 is refused."""
        ids = np.asarray(ids, dtype=int)
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self._num_atoms):
            raise ContractViolationError(f"atom ids outside 0..{self._num_atoms - 1}")
        if self._active is None:
            self._active = np.ones(self._enumerable_count(), dtype=bool)
        self._active[ids] = False
        self._ids = np.flatnonzero(self._active)
        self._ids.setflags(write=False)

    def copy(self):
        out = AtomMask(self._num_atoms)
        if self._active is not None:
            out._active = self._active.copy()
            out._ids = self._ids  # read-only; deactivate replaces it
        out._columns, self._columns = self._columns, None
        return out

    def _enumerable_count(self):
        if self._num_atoms > _ENUM_LIMIT:
            raise ContractViolationError(
                f"refusing to materialize a mask over {self._num_atoms} atoms; "
                f"masked operations are limited to {_ENUM_LIMIT} atoms"
            )
        return self._num_atoms

    def __repr__(self):
        return f"AtomMask({self.active_count}/{self.num_atoms} active)"


class AtomicSet:
    """A scaled finite atomic set with linear-oracle and gauge queries."""

    def __init__(self, kind, dimension, scale=1.0, vectors=None):
        if kind not in (SIGNED_BASIS, HYPERCUBE, EXPLICIT):
            raise ContractViolationError(f"unknown atomic-set kind {kind!r}")
        dimension = int(dimension)
        if dimension <= 0:
            raise ContractViolationError("dimension must be positive")
        scale = float(scale)
        if not scale > 0 or not np.isfinite(scale):
            raise ContractViolationError("scale must be a positive finite real")
        self.kind = kind
        self.dimension = dimension
        self.scale = scale
        if kind == EXPLICIT:
            mat = np.asarray(vectors, dtype=float)
            if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] != dimension:
                raise ContractViolationError(
                    "explicit atom list must be a nonempty (m, d) array"
                )
            if not np.all(np.isfinite(mat)):
                raise ContractViolationError("atom vectors must be finite")
            # scale folded in once, here
            self._vectors = mat * scale
            self._vectors.setflags(write=False)
        else:
            if vectors is not None:
                raise ContractViolationError(f"{kind} does not take explicit vectors")
            self._vectors = None  # the implicit kinds build it on first use

    # -- constructors ---------------------------------------------------

    @classmethod
    def signed_basis(cls, dimension, scale=1.0):
        """The 2d atoms +/- C*e_k (l1 ball of radius C)."""
        return cls(SIGNED_BASIS, dimension, scale)

    @classmethod
    def hypercube(cls, dimension, scale=1.0):
        """The 2^d sign vertices C*{-1,+1}^d (l_inf ball of radius C)."""
        return cls(HYPERCUBE, dimension, scale)

    @classmethod
    def explicit(cls, vectors, scale=1.0):
        """An arbitrary list of atoms; ``vectors`` is (m, d), one atom per row."""
        mat = np.asarray(vectors, dtype=float)
        if mat.ndim != 2:
            raise ContractViolationError("expected a 2-d array of atom rows")
        return cls(EXPLICIT, mat.shape[1], scale, vectors=mat)

    # -- basic geometry ---------------------------------------------------

    @property
    def num_atoms(self):
        if self.kind == SIGNED_BASIS:
            return 2 * self.dimension
        if self.kind == HYPERCUBE:
            return 2 ** self.dimension
        return self._vectors.shape[0]

    def atom_vector(self, atom_id):
        """The (scaled) vector of one atom."""
        atom_id = int(atom_id)
        if atom_id < 0 or atom_id >= self.num_atoms:
            raise ContractViolationError(f"atom id {atom_id} out of range")
        if self.kind == SIGNED_BASIS:
            k, entry = self._signed(atom_id)
            v = np.zeros(self.dimension)
            v[k] = entry
            return v
        if self.kind == HYPERCUBE:
            # ids may exceed 64 bits, so the bits go through bytes
            raw = atom_id.to_bytes((self.dimension + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
            return self.scale * (1.0 - 2.0 * bits[: self.dimension])
        return self._vectors[atom_id].copy()

    def _signed(self, atom_id):
        """``(k, entry)`` of a signed-basis atom: its coordinate, +/-C."""
        d = self.dimension
        return atom_id % d, (self.scale if atom_id < d else -self.scale)

    def image(self, features, atom_id):
        """``features @ p`` for one atom p: for the signed basis one scaled
        column of features, O(n) instead of O(n d)."""
        if self.kind != SIGNED_BASIS:
            return features @ self.atom_vector(atom_id)
        k, entry = self._signed(int(atom_id))
        return entry * features[:, k]

    def atoms_matrix(self):
        """All atoms as a read-only (m, d) array, built once per set and
        kept. Guarded for huge hypercubes."""
        if self._vectors is not None:
            return self._vectors
        if self.kind == SIGNED_BASIS:
            eye = np.eye(self.dimension) * self.scale
            mat = np.vstack([eye, -eye])
        elif not self.enumerable:
            raise ContractViolationError(
                "hypercube vertex enumeration is limited to desk scale"
            )
        else:
            ids = np.arange(self.num_atoms)
            bits = (ids[:, None] >> np.arange(self.dimension)[None, :]) & 1
            mat = self.scale * (1.0 - 2.0 * bits)
        mat.setflags(write=False)
        self._vectors = mat
        return mat

    def _check_point(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dimension,):
            raise ContractViolationError(
                f"expected a vector of dimension {self.dimension}, got shape {z.shape}"
            )
        return z

    @property
    def enumerable(self):
        """True when the atoms may be enumerated (masks, score vectors)."""
        return self.num_atoms <= _ENUM_LIMIT

    def dots(self, z, mask=None):
        """Inner products of z with every (active) atom.

        Returns ``(ids, values)`` with ids ascending. Every value is
        computed and the active ones are indexed out. Hypercube sets are
        enumerated (once, see atoms_matrix) and therefore desk-scale only
        on this path.
        """
        z = self._check_point(z)
        if self.kind == SIGNED_BASIS:
            values = self.scale * np.concatenate([z, -z])
        else:
            values = self.atoms_matrix() @ z
        if mask is None or mask.is_full:
            return np.arange(self.num_atoms), values
        ids = mask.active_ids()
        return ids, values[ids]

    # -- the three core queries -------------------------------------------

    def lmo(self, z, mask=None):
        """Best atom for the linear form z: argmax over active atoms of <p, z>.

        Returns ``(atom_id, value)``; ties go to the lowest id. With no mask
        every atom is active. Raises when the mask has no active atom. With
        a full mask the implicit kinds score no atom list: the signed basis
        takes the extremes of C*z, bit-identical to best_atom over dots; the
        hypercube the signs of z, whose value C*|z|_1 can differ from dots' in
        the last bit, as the two sum in different orders.
        """
        z = self._check_point(z)
        full = mask is None or mask.is_full
        if full and self.kind == HYPERCUBE:
            # implicit sign oracle: works at any dimension; bit k of the id
            # is set where z_k < 0, so ties at zero take the lower id
            bits = np.packbits(z < 0, bitorder="little")
            atom_id = int.from_bytes(bits.tobytes(), "little")
            return atom_id, self.scale * float(np.sum(np.abs(z)))
        if full and self.kind == SIGNED_BASIS:
            # the scores are w = C*z, then -w (negation is exact): +e_hi
            # wins unless -w_lo is strictly larger, so a cross-sign tie goes
            # to the lower id; a NaN is the first max and min of w and fails
            # the comparison, so its + atom wins, as in best_atom
            w = self.scale * z
            hi, lo = int(w.argmax()), int(w.argmin())
            if w[hi] < -w[lo]:
                return self.dimension + lo, float(-w[lo])
            return hi, float(w[hi])
        return best_atom(*self.dots(z, mask))

    def oracle(self, features, v, mask=None):
        """The linear oracle at grad = features' v over mask (None: every
        atom): ``(grad, scores, (atom_id, sigma))``. scores is ``(ids,
        values)``, values <p, -grad> over the active atoms, ids ascending,
        and the answer is its first maximum (best_atom). At full mask the
        implicit kinds answer through lmo and score no atom: scores is None.
        A pruned signed basis scores from its active columns and forms no
        gradient: grad is None (see _column_scores)."""
        full = mask is None or mask.is_full
        if self.kind == SIGNED_BASIS and not full:
            ids, values = self._column_scores(features, v, mask)
            return None, (ids, values), best_atom(ids, values)
        grad = features.T @ v
        if full and self.kind != EXPLICIT:
            return grad, None, self.lmo(-grad)
        scores = self.dots(-grad, mask)
        return grad, scores, best_atom(*scores)

    def _column_scores(self, features, v, mask):
        """Scores of the atoms active in mask on a pruned signed basis: atom
        +/-C e_k has -/+C (features' v)_k, +/-C (-grad)_k up to the order of
        summation, from a copy of the columns an active atom touches, cached
        on the mask and keyed on this set, the features object and the
        mask's active ids (_ActiveColumns)."""
        if mask._columns is None:
            mask._columns = _ActiveColumns()
        ids = mask.active_ids()
        return ids, mask._columns.scores(self, features, ids, v)

    def move(self, x, theta, xi, atom_id):
        """x <- (1 - theta) x + theta * xi * atom, in place and bit-identical
        to that formula; returns the one coordinate whose magnitude can have
        grown, or None when any can. On the signed basis every entry but x_k
        becomes (1 - theta) x_j plus the formula's zero term theta * (xi * 0),
        which turns a -0 into +0 as the formula does."""
        if self.kind != SIGNED_BASIS:
            x *= 1.0 - theta
            x += theta * (xi * self.atom_vector(atom_id))
            return None
        k, entry = self._signed(atom_id)
        x_k = x[k]
        x *= 1.0 - theta
        x += theta * (xi * 0.0)
        x[k] = (1.0 - theta) * x_k + theta * (xi * entry)
        return k

    def support_value(self, z, mask=None):
        """Max of <p, z> over active atoms (the support function of their hull)."""
        return self.lmo(z, mask)[1]

    def gauge_value(self, x):
        """Smallest total weight of a nonnegative atom combination equal to x.

        Closed form for the implicit kinds; a small linear program for
        explicit lists. Raises InfeasibleGaugeError when x is outside the
        cone of the atoms.
        """
        x = self._check_point(x)
        if self.kind == SIGNED_BASIS:
            return self.iterate_gauge(x)
        if self.kind == HYPERCUBE:
            return float(np.max(np.abs(x)) / self.scale)
        return self._gauge_lp(x)[0]

    def iterate_gauge(self, x):
        """|x|_1 / C, the gauge of x, on the signed basis; None elsewhere,
        where the solver bounds the gauge by its ledger sum. (The hypercube's
        max|x| / C is tighter, and would move the objectives in its traces.)"""
        if self.kind != SIGNED_BASIS:
            return None
        return float(np.abs(x).sum()) / self.scale

    def gram_bound(self, features):
        """Upper bound on |<A p, A q>| over the set's own atom pairs, A =
        features, in closed form from the column norms of A for the implicit
        kinds: C^2 max|a_k|^2 (signed basis), C^2 (sum_k |a_k|)^2 (hypercube)."""
        if self.kind == SIGNED_BASIS:
            return self.scale**2 * float(np.max(np.sum(features * features, axis=0)))
        if self.kind == HYPERCUBE:
            return self.scale**2 * float(np.sum(np.sqrt(np.sum(features**2, axis=0)))) ** 2
        mapped = features @ self.atoms_matrix().T  # columns are A p
        gram = mapped.T @ mapped
        return float(np.max(np.abs(gram)))

    def gauge_decomposition(self, x):
        """Gauge value together with one witness decomposition.

        Returns ``(value, coeffs)`` where coeffs is a dense array over atom
        ids with ``coeffs @ atoms == x`` and ``coeffs.sum() == value``.
        Not available for hypercube sets (no materialized witness).
        """
        x = self._check_point(x)
        if self.kind == SIGNED_BASIS:
            coeffs = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)])
            coeffs /= self.scale
            return self.iterate_gauge(x), coeffs
        if self.kind == HYPERCUBE:
            raise ContractViolationError(
                "hypercube sets have no materialized decomposition witness"
            )
        return self._gauge_lp(x)

    def _gauge_lp(self, x):
        # imported on first use: no other path of the package needs
        # scipy.optimize, and loading it is a large share of the import time
        from scipy.optimize import linprog

        m = self.num_atoms
        if not np.any(x):
            return 0.0, np.zeros(m)
        res = linprog(
            c=np.ones(m),
            A_eq=self._vectors.T,
            b_eq=x,
            bounds=(0, None),
            method="highs",
        )
        if res.status == 2:
            raise InfeasibleGaugeError(
                "point lies outside the cone of the atoms (gauge is +inf)"
            )
        if res.status != 0:
            raise RuntimeError(f"gauge linear program failed: {res.message}")
        coeffs = np.asarray(res.x, dtype=float)
        coeffs[coeffs < 0] = 0.0
        # Polish: re-solve the basic columns by least squares. The simplex
        # answer sits on a vertex; the polish removes solver slop so the
        # value is good to near machine precision.
        basic = np.flatnonzero(coeffs > 1e-11 * (1.0 + coeffs.max()))
        if basic.size:
            sub = self._vectors[basic].T
            sol, _, _, _ = np.linalg.lstsq(sub, x, rcond=None)
            ok = (
                np.all(sol >= -1e-9)
                and np.max(np.abs(sub @ sol - x)) <= 1e-8 * (1.0 + np.max(np.abs(x)))
            )
            if ok:
                polished = np.zeros(m)
                polished[basic] = np.maximum(sol, 0.0)
                if polished.sum() <= coeffs.sum() + 1e-9:
                    coeffs = polished
        return float(coeffs.sum()), coeffs

    def full_mask(self):
        return AtomMask(self.num_atoms)

    def fingerprint_parts(self):
        """fingerprint_bytes in pieces, the atoms as a buffer, not a copy."""
        head = f"{self.kind}|{self.dimension}|{self.scale!r}".encode()
        if self.kind == EXPLICIT:
            return [head, b"|", np.ascontiguousarray(self._vectors)]
        return [head]

    def fingerprint_bytes(self):
        """Stable byte description, used for problem fingerprints."""
        return b"".join(self.fingerprint_parts())

    def __repr__(self):
        return (
            f"AtomicSet(kind={self.kind!r}, dimension={self.dimension}, "
            f"scale={self.scale}, num_atoms={self.num_atoms})"
        )


# -- plain-text atom files --------------------------------------------------


def load_atoms_file(path, scale=1.0):
    """Read an explicit-list set from a text file.

    Layout: a header line ``atoms <m> <d>`` followed by m lines of d
    whitespace-separated decimal coordinates.
    """
    with open(path, "r", encoding="ascii") as fh:
        return _parse_atoms(fh, scale)


def _parse_atoms(fh, scale):
    header = fh.readline()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "atoms":
        raise FileFormatError(
            f"atoms file must start with 'atoms <m> <d>', got {header.strip()!r}",
            offset=0,
        )
    try:
        m, d = int(parts[1]), int(parts[2])
    except ValueError:
        raise FileFormatError(
            f"atom counts in header are not integers: {header.strip()!r}", offset=0
        ) from None
    if m <= 0 or d <= 0:
        raise FileFormatError("atom counts must be positive", offset=0)
    try:
        rows = np.loadtxt(io.StringIO(fh.read()), ndmin=2)
    except ValueError as err:
        raise FileFormatError(f"atom coordinates are not numbers: {err}", offset=1) from None
    if rows.shape != (m, d):
        raise FileFormatError(
            f"expected {m} rows of {d} coordinates, got shape {tuple(rows.shape)}",
            offset=1,
        )
    return AtomicSet.explicit(rows, scale=scale)


def save_atoms_file(atomic_set, path):
    """Write an explicit-list set (inverse of load_atoms_file).

    Coordinates are written at full precision, scale folded in.
    """
    mat = atomic_set.atoms_matrix()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"atoms {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
