"""Finite atomic sets: linear minimization, support values, and gauges.

An atomic set is the convex hull of finitely many vectors ("atoms"),
optionally magnified by a positive scale. Three kinds are supported:

* ``signed-basis``     -- the 2d vectors  +/- C*e_k  (an l1 ball of radius C),
* ``hypercube-vertices`` -- the 2^d sign vectors  C*{-1,+1}^d  (an l_inf ball),
* ``explicit-list``    -- an arbitrary finite list of vectors.

The scale C is folded into the atom vectors themselves, so every quantity
computed here (support values, gauges, linear oracles) is already in the
magnified geometry and downstream code never multiplies by C again.

Atom ids are stable integers:

* signed-basis: ids 0..d-1 are +C*e_k, ids d..2d-1 are -C*e_k;
* hypercube-vertices: bit k of the id set to 1 means coordinate k is -C
  (so the all-positive vertex has id 0);
* explicit-list: the row index in the given list.

Ties in the linear oracle always resolve to the lowest atom id.
"""

import io

import numpy as np
from scipy.optimize import linprog

from .errors import ContractViolationError, FileFormatError, InfeasibleGaugeError

SIGNED_BASIS = "signed-basis"
HYPERCUBE = "hypercube-vertices"
EXPLICIT = "explicit-list"

# Enumerating hypercube vertices (masks, score vectors, ...) is only allowed
# at desk scale; the implicit sign oracle below has no such limit.
_ENUM_LIMIT = 2 ** 22


class AtomMask:
    """Activity mask over the atom ids of one set.

    Deactivation is one-way: ids can be switched off (idempotently) but
    never back on. A new mask stores nothing: every atom is active and it
    exists at any set size, hypercubes beyond enumeration included. The
    first deactivate materializes it, which is limited to enumerable sets.
    The ascending array of active ids is cached and refreshed only by
    deactivate, so it only ever shrinks; it is read-only. The solver owns
    and mutates the mask; everything else treats it as read-only.
    """

    def __init__(self, num_atoms):
        num_atoms = int(num_atoms)
        if num_atoms <= 0:
            raise ContractViolationError("mask needs at least one atom")
        self._num_atoms = num_atoms
        self._active = None  # None: every atom active, nothing stored
        self._ids = None

    @classmethod
    def full(cls, atomic_set):
        return cls(atomic_set.num_atoms)

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
        if self._active is None:
            return 0 <= atom_id < self._num_atoms
        return bool(self._active[atom_id])

    def deactivate(self, ids):
        """Switch the given ids off. Already-inactive ids are ignored."""
        if self._active is None:
            self._active = np.ones(self._enumerable_count(), dtype=bool)
        self._active[np.asarray(ids, dtype=int)] = False
        self._ids = np.flatnonzero(self._active)
        self._ids.setflags(write=False)

    def copy(self):
        out = AtomMask(self._num_atoms)
        if self._active is not None:
            out._active = self._active.copy()
            out._ids = self._ids  # read-only; deactivate replaces it
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

    def __init__(self, kind, dimension, scale=1.0, vectors=None, _symmetric=None):
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
        self._contains_zero = None
        self._masked_factors = None
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
            self._vectors = None
        self._symmetric = _symmetric

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

    @property
    def symmetric(self):
        """True when the atom list is closed under negation."""
        if self.kind in (SIGNED_BASIS, HYPERCUBE):
            return True
        if self._symmetric is None:
            rows = {row.tobytes() for row in self._vectors}
            self._symmetric = all((-row).tobytes() in rows for row in self._vectors)
        return self._symmetric

    @property
    def contains_zero(self):
        """True when the origin lies in the convex hull of the atoms."""
        if self.kind in (SIGNED_BASIS, HYPERCUBE):
            return True
        if self._contains_zero is None:
            m = self.num_atoms
            res = linprog(
                c=np.zeros(m),
                A_eq=np.vstack([self._vectors.T, np.ones((1, m))]),
                b_eq=np.concatenate([np.zeros(self.dimension), [1.0]]),
                bounds=(0, None),
                method="highs",
            )
            self._contains_zero = res.status == 0
        return self._contains_zero

    def atom_vector(self, atom_id):
        """The (scaled) vector of one atom."""
        atom_id = int(atom_id)
        if atom_id < 0 or atom_id >= self.num_atoms:
            raise ContractViolationError(f"atom id {atom_id} out of range")
        if self.kind == SIGNED_BASIS:
            v = np.zeros(self.dimension)
            if atom_id < self.dimension:
                v[atom_id] = self.scale
            else:
                v[atom_id - self.dimension] = -self.scale
            return v
        if self.kind == HYPERCUBE:
            # ids may exceed 64 bits, so the bits go through bytes
            raw = atom_id.to_bytes((self.dimension + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
            return self.scale * (1.0 - 2.0 * bits[: self.dimension])
        return self._vectors[atom_id].copy()

    def image(self, features, atom_id):
        """``features @ p`` for one atom p: for the signed basis one scaled
        column of features, O(n) instead of O(n d)."""
        if self.kind != SIGNED_BASIS:
            return features @ self.atom_vector(atom_id)
        atom_id = int(atom_id)
        if atom_id < self.dimension:
            return self.scale * features[:, atom_id]
        return -self.scale * features[:, atom_id - self.dimension]

    def coordinates(self, ids):
        """Ascending coordinates that the given signed-basis atoms touch."""
        if self.kind != SIGNED_BASIS:
            raise ContractViolationError("atom coordinates exist for the signed basis only")
        return np.unique(np.asarray(ids, dtype=int) % self.dimension)

    def atoms_matrix(self):
        """All atoms as an (m, d) array. Guarded for huge hypercubes."""
        if self.kind == EXPLICIT:
            return self._vectors
        if self.kind == SIGNED_BASIS:
            eye = np.eye(self.dimension) * self.scale
            return np.vstack([eye, -eye])
        if not self.enumerable:
            raise ContractViolationError(
                "hypercube vertex enumeration is limited to desk scale"
            )
        ids = np.arange(self.num_atoms)
        bits = (ids[:, None] >> np.arange(self.dimension)[None, :]) & 1
        return self.scale * (1.0 - 2.0 * bits)

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

        Returns ``(ids, values)`` with ids ascending. A masked signed basis
        computes only the active values. Hypercube sets are enumerated and
        therefore desk-scale only on this path.
        """
        z = self._check_point(z)
        full = mask is None or mask.is_full
        if self.kind == SIGNED_BASIS:
            if full:
                return np.arange(self.num_atoms), self.scale * np.concatenate([z, -z])
            ids = mask.active_ids()
            coords, signed_scale = self._signed_factors(ids)
            return ids, signed_scale * z[coords]
        if self.kind == EXPLICIT:
            values = self._vectors @ z
        else:
            values = self.atoms_matrix() @ z
        if full:
            return np.arange(self.num_atoms), values
        ids = mask.active_ids()
        return ids, values[ids]

    def _signed_factors(self, ids):
        """Coordinates and +/-C factors of signed-basis ids, so that the
        value of atom ids[j] at z is factor[j] * z[coord[j]] (bit-identical
        to C * z_k and C * -z_k). Kept for the last ids array seen: a mask's
        cached ids array is replaced only when the mask shrinks. Runs on
        threads that share the set replace the tuple whole, so a read of it
        is never torn."""
        cached = self._masked_factors
        if cached is None or cached[0] is not ids:
            d = self.dimension
            cached = (ids, ids % d, np.where(ids < d, self.scale, -self.scale))
            self._masked_factors = cached
        return cached[1], cached[2]

    # -- the three core queries -------------------------------------------

    def lmo(self, z, mask=None):
        """Best atom for the linear form z: argmax over active atoms of <p, z>.

        Returns ``(atom_id, value)``; ties go to the lowest id. With no mask
        every atom is active. Raises when the mask has no active atom.
        """
        z = self._check_point(z)
        full = mask is None or mask.is_full
        if full and self.kind == HYPERCUBE:
            # implicit sign oracle: works at any dimension; bit k of the id
            # is set where z_k < 0, so ties at zero take the lower id
            bits = np.packbits(z < 0, bitorder="little")
            atom_id = int.from_bytes(bits.tobytes(), "little")
            return atom_id, self.scale * float(np.sum(np.abs(z)))
        if not full and mask.active_count == 0:
            raise ContractViolationError("linear oracle over an empty mask")
        ids, values = self.dots(z, mask)
        best = int(np.argmax(values))  # first maximum -> lowest id
        return int(ids[best]), float(values[best])

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
            return float(np.sum(np.abs(x)) / self.scale)
        if self.kind == HYPERCUBE:
            return float(np.max(np.abs(x)) / self.scale)
        return self._gauge_lp(x)[0]

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
            return float(np.sum(np.abs(x)) / self.scale), coeffs
        if self.kind == HYPERCUBE:
            raise ContractViolationError(
                "hypercube sets have no materialized decomposition witness"
            )
        return self._gauge_lp(x)

    def _gauge_lp(self, x):
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

    def symmetrize(self):
        """The union of the atoms and their negations (deduplicated).

        Implicit kinds are already symmetric and return themselves.
        Original atom ids are preserved as a prefix of the new id range.
        """
        if self.kind in (SIGNED_BASIS, HYPERCUBE):
            return self
        if self.symmetric:
            return self
        seen = {row.tobytes() for row in self._vectors}
        extra = []
        for row in self._vectors:
            neg = -row
            key = neg.tobytes()
            if key not in seen:
                seen.add(key)
                extra.append(neg)
        stacked = np.vstack([self._vectors, np.asarray(extra)])
        # vectors already carry the scale; build the new set with scale 1
        # applied to the scaled rows, but remember the original magnification
        out = AtomicSet(EXPLICIT, self.dimension, 1.0, vectors=stacked, _symmetric=True)
        out.scale = self.scale
        return out

    def full_mask(self):
        return AtomMask.full(self)

    def fingerprint_bytes(self):
        """Stable byte description, used for problem fingerprints."""
        head = f"{self.kind}|{self.dimension}|{self.scale!r}".encode()
        if self.kind == EXPLICIT:
            return head + b"|" + self._vectors.tobytes()
        return head

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
    rows = np.loadtxt(io.StringIO(fh.read()), ndmin=2)
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
