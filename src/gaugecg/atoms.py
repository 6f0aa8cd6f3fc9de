"""Finite atomic sets: linear minimization, support values, and gauges.

An atomic set is the convex hull of finitely many vectors ("atoms"),
optionally magnified by a positive scale. Three kinds are supported, one
AtomicSet subclass each:

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

import math

import numpy as np

from .errors import ContractViolationError, InfeasibleGaugeError, _checked, _index, _real, _vector

SIGNED_BASIS = "signed-basis"
HYPERCUBE = "hypercube-vertices"
EXPLICIT = "explicit-list"

# Enumerating hypercube vertices (masks, score vectors, ...) is only allowed
# at desk scale; the implicit sign oracle below has no such limit.
_ENUM_LIMIT = 2 ** 22
# entries per block when _column_sq_norms squares its columns
_COPY_BLOCK = 2 ** 14
# A pruned signed basis copies the columns its active atoms touch only once
# they are at most an eighth of features: no copy exceeds an eighth of the
# data, and a wider mask is scored from the unscreened product A'v.
_COPY_FRACTION = 8
# An unscreened signed basis scores from a window of candidate columns
# (_Window) only on data of at least this many entries: below it the
# product A'v costs about what the window's bookkeeping does. Logistic
# runs of 3000 steps, seeds 0-3, weights 0.01, 0.1 and 1, window against
# full-product time (median per weight): 10k entries 1.01-1.04, 20k
# 0.88-1.12, 30k (n=100, d=300) 0.83-1.11, 40k 0.85-0.99, 60k 0.79-1.03,
# 200k (n=200, d=1000) 0.40-0.71.
_WINDOW_FLOOR = 2 ** 15
# A window that served fewer steps than this makes the next refreshes open
# none, a number that doubles each time until one serves that many: a run
# whose windows never hold (weight 0.01, whose support exceeds d // 8)
# tries one on a logarithmic share of its steps. Against the full product
# (3000 steps, seeds 0-2), such a run at n=200, d=300 took 1.05-1.11x with
# the back-off and 2.39-2.53x with a window tried at every refresh; with
# the floor lifted, n=100, d=50 took 1.00-1.05x against 2.46-2.49x.
_WINDOW_MIN_SERVED = 2
_EPS = float(np.finfo(float).eps)


class _ActiveColumns:
    """A signed basis's run oracle (AtomicSet._run_oracle): a pruned mask
    whose active atoms touch at most d // _COPY_FRACTION columns scores from
    the copy sub = features[:, cols], any other mask by AtomicSet.oracle.
    The columns follow the state's mask, which only shrinks, by its active
    count, and the copy is kept while the columns stay the same."""

    __slots__ = ("aset", "features", "ids", "cols", "pos", "neg_factor", "sub", "best")

    def __init__(self, aset, features, ids=None):
        self.aset, self.features = aset, features
        self.ids = self.cols = self.pos = self.neg_factor = self.sub = self.best = None
        if ids is not None:
            self.update(ids)

    def __call__(self, v, mask):
        if mask._active is not None:  # pruned: mask._ids are its active ids
            if self.ids is None or self.ids.size != mask._ids.size:
                self.update(mask._ids)
            if self.sub is not None:  # atom +/-C e_k scores -/+C (A'v)_k (np.dot: @, cheaper)
                values = self.neg_factor * np.dot(self.sub.T, v)[self.pos]
                self.best = best = values.argmax()
                return None, (self.ids, values), (self.ids.item(best), values.item(best))
        self.best = None
        return self.aset.oracle(self.features, v, mask)

    def update(self, ids):
        d = self.aset.dimension
        coords = ids % d
        # the sorted distinct coords, as np.unique gives them without the
        # table of a megabyte or more that its first call allocates
        touched = np.zeros(d, dtype=bool)
        touched[coords] = True
        cols = np.flatnonzero(touched)
        if self.cols is None or not np.array_equal(cols, self.cols):
            self.sub = None  # freed before the next copy is made
            if 0 < cols.size <= d // _COPY_FRACTION:  # oracle refuses no atom
                self.sub = self.features[:, cols]
        self.ids, self.cols = ids, cols
        if self.sub is not None:  # only a copy reads them
            self.pos = np.searchsorted(cols, coords)
            self.neg_factor = np.where(ids < d, -self.aset.scale, self.aset.scale)

    def image(self, atom_id, xi):
        """xi * _SignedBasis._image of the atom the last call chose, from the
        copy; at C = 1, xi * (+/-col) is (+/-xi) * col to the bit."""
        if self.best is None:
            return xi * self.aset._image(self.features, atom_id)
        entry, col = -self.neg_factor[self.best], self.sub[:, self.pos[self.best]]
        return (xi * entry) * col if self.aset.scale == 1.0 else xi * (entry * col)


class _Window:
    """Candidate columns of an unscreened signed basis, certified over a
    sphere of link vectors: its run oracle scores a full mask from them, and
    a mask that a screened step pruned by pruned (_ActiveColumns).

    A refresh is a step that formed g_s = A'v_s. With a_k the columns, m_i
    the i-th largest |g_s,k|, b = d // _COPY_FRACTION and
    rho = (m_1 - m_{b+1}) / (2 max_k |a_k|), it opens a window on
    K = {k : |g_s,k| + |a_k| rho >= M}, M = max_j (|g_s,j| - |a_j| rho), and
    copies those columns (_ActiveColumns over the atoms of both signs). Every
    k outside the top b has |g_s,k| + |a_k| rho <= (m_1 + m_{b+1}) / 2 <= M,
    so K holds at most b columns, ties aside; a refresh whose K is larger,
    or whose rho is not positive and finite, opens no window. A later step
    at v scores K alone while

        (|v - v_s| + gamma (|v_s| + |v|)) (1 + 4 (n + 1) eps) <= rho,

    gamma = n eps, and else forms the full product and refreshes. A
    non-finite v fails the test, so such a step forms the product as
    before the window existed.

    Why the answer is the full oracle's. Write g for exact products and
    g^ for computed ones: a length-n dot product is within
    gamma |a_k| |v| of exact (gamma >= gamma_n, the bound of Higham's
    Accuracy and Stability ch. 3, for any summation order), so the full
    products at v and v_s, g^_t and g^_s, have |g^_t,k - g^_s,k| <= |a_k| r,
    r = |v - v_s| + gamma (|v_s| + |v|), by Cauchy-Schwarz on
    a_k'(v - v_s) between the two roundings; this is the sphere of Gap Safe
    screening (Ndiaye et al., JMLR 2017), centred on v_s. The computed
    norms of v, v - v_s and a_k are each within n eps of exact, so the
    test gives |a_k| r <= a^_k rho for every k, a^_k the computed norm.
    Then for j outside K and i the maximizer of M,

        |g^_t,j| <= |g^_s,j| + a^_j rho < |g^_s,i| - a^_i rho <= |g^_t,i|,

    where the strict step is K's definition. K is tested with its left
    side, a sum of nonnegative terms, inflated by (1 + 8 eps): that side is
    computed to within 2 eps of it, and M to within 3 eps M (no term
    exceeds m_1 + rho max|a| <= 3 M), so the exact inequality holds. So the full
    product's argmax of |g^_t| lies in K, and the copy's argmax over K,
    taken by the full oracle's rule (lowest id, + before - on a tie),
    differs from it only where two columns of K are within 2 gamma
    max|a| |v| of each other: the window's atom is never scored lower by
    the full product by more than that rounding, times C. The copy sums
    in its own order, so sigma and what follows from it can move in the
    last bits, as a pruned mask's copy does. Column norms that underflow
    to zero (entries below 1e-154) are outside this argument.
    """

    __slots__ = ("pruned", "norms", "columns", "v", "v_norm", "rho", "served", "wait", "skip")

    def __init__(self, pruned):
        self.pruned = pruned
        self.norms = self.columns = None
        self.served = self.wait = self.skip = 0

    def __call__(self, v, mask):
        if not mask.is_full:
            return self.pruned(v, mask)
        answer = self.answer(v)
        if answer is not None:
            return None, None, answer
        grad, scores, answer = self.pruned(v, mask)  # the full product
        self.refresh(grad, v)
        return grad, scores, answer

    def answer(self, v):
        """(atom_id, sigma) scored over K while the window holds, else None."""
        if self.columns is None:
            return None
        step = v - self.v
        reach = math.sqrt(step @ step) + v.size * _EPS * (self.v_norm + math.sqrt(v @ v))
        if not reach * (1.0 + 4.0 * (v.size + 1) * _EPS) <= self.rho:
            return None
        self.served += 1
        cols = self.columns  # scored as _ActiveColumns.__call__ scores its copy
        return best_atom(cols.ids, cols.neg_factor * np.dot(cols.sub.T, v)[cols.pos])

    def refresh(self, grad, v):
        """At a step that formed grad = A'v: close the open window, then
        open one at v unless the back-off holds refreshes off."""
        if self.columns is not None:
            self.columns = None  # freed before the next copy is made
            self._closed(self.served)
        if self.skip:
            self.skip -= 1
            return
        aset, features = self.pruned.aset, self.pruned.features
        if self.norms is None:
            self.norms = np.sqrt(_column_sq_norms(features))
        mags = np.abs(grad)
        d = mags.size
        b = d // _COPY_FRACTION
        top = np.partition(mags, d - 1 - b)[d - 1 - b:]
        rho = float(top.max() - top[0]) / (2.0 * float(self.norms.max()))
        reach = self.norms * rho
        cols = np.flatnonzero(
            (mags + reach) * (1.0 + 8.0 * _EPS) >= (mags - reach).max()
        )
        if not (0.0 < rho < math.inf and cols.size <= b):
            self._closed(0)
            return
        self.columns = _ActiveColumns(aset, features, np.concatenate([cols, cols + d]))
        self.v, self.v_norm, self.rho = v, math.sqrt(v @ v), rho
        self.served = 0

    def _closed(self, served):
        self.wait = 0 if served >= _WINDOW_MIN_SERVED else max(1, 2 * self.wait)
        self.skip = self.wait


def _column_sq_norms(features):
    """np.sum(features * features, axis=0), bit for bit, squaring a block of
    columns at a time rather than the whole matrix. Each block sums its
    columns as the whole matrix does (down the rows in order on row-major
    data, pairwise on column-major), except a block one column wide, which
    numpy sums pairwise whatever the layout; so a last block of one column
    joins the block before it."""
    n, d = features.shape
    width = max(2, _COPY_BLOCK // max(n, 1))
    edges = list(range(0, d, width)) + [d]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    out = np.empty(d)
    for start, stop in zip(edges, edges[1:]):
        block = features[:, start:stop]
        out[start:stop] = np.sum(block * block, axis=0)
    return out


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
    deactivate, so it only ever shrinks; it is read-only. The solver owns
    and prunes the mask; everything else treats it as read-only.
    """

    def __init__(self, num_atoms):
        self._num_atoms = _checked(
            _index, num_atoms, lambda m: m > 0, "mask needs at least one atom"
        )
        self._active = None  # None: every atom active, nothing stored
        self._ids = None

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

    def deactivate(self, ids):
        """Switch the given ids off. Already-inactive ids are ignored; an id
        that is not an integer in 0..num_atoms-1 is refused."""
        ids = _checked(
            np.asarray, ids, lambda a: a.dtype.kind in "iu" or not a.size,
            "atom ids must be integers",
        ).astype(int)
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self._num_atoms):
            raise ContractViolationError(f"atom ids outside 0..{self._num_atoms - 1}")
        if self._active is None:
            self._active = np.ones(self._enumerable_count(), dtype=bool)
        self._active[ids] = False
        self._ids = np.flatnonzero(self._active)
        self._ids.setflags(write=False)

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
    """A scaled finite atomic set with linear-oracle and gauge queries; the
    classmethods build the subclass of each kind. The methods here serve any
    set through its atom matrix, and the implicit kinds override them with
    closed forms."""

    kind = None
    _vectors = None  # the atom matrix, built on first use (atoms_matrix)
    # the closed-form oracle over every atom, (atom_id, value) for z; None
    # on an explicit list, whose oracle scores its atoms
    _implicit_lmo = None

    def __init__(self, dimension, scale):
        self.dimension = _checked(
            _index, dimension, lambda k: k > 0, "dimension must be positive"
        )
        self.scale = _checked(
            _real, scale, lambda c: 0 < c < np.inf, "scale must be a positive finite real"
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def signed_basis(cls, dimension, scale=1.0):
        """The 2d atoms +/- C*e_k (l1 ball of radius C)."""
        return _SignedBasis(dimension, scale)

    @classmethod
    def hypercube(cls, dimension, scale=1.0):
        """The 2^d sign vertices C*{-1,+1}^d (l_inf ball of radius C)."""
        return _Hypercube(dimension, scale)

    @classmethod
    def explicit(cls, vectors, scale=1.0):
        """An arbitrary list of atoms; ``vectors`` is (m, d), one atom per row."""
        return _ExplicitList(vectors, scale)

    # -- basic geometry ---------------------------------------------------

    @property
    def num_atoms(self):
        return self.atoms_matrix().shape[0]

    def atom_vector(self, atom_id):
        """The (scaled) vector of one atom."""
        return self._atom_vector(self._id(atom_id))

    def _id(self, atom_id):
        """atom_id as an int in 0..num_atoms-1, the solver's own ints as
        they are, else ContractViolationError: a bool or 1.5 is no id."""
        if type(atom_id) is not int:
            atom_id = _checked(_index, atom_id, lambda i: True, "atom ids must be integers")
        if atom_id < 0 or atom_id >= self.num_atoms:
            raise ContractViolationError(f"atom id {atom_id} out of range")
        return atom_id

    def _atom_vector(self, atom_id):
        return self.atoms_matrix()[atom_id].copy()

    def image(self, features, atom_id):
        """``features @ p`` for one atom p."""
        return self._image(features, self._id(atom_id))

    def _image(self, features, atom_id):
        return features @ self._atom_vector(atom_id)

    def atoms_matrix(self):
        """All atoms as a read-only (m, d) array, built once per set and
        kept. Guarded for huge hypercubes."""
        if self._vectors is None:
            mat = self._enumerate()
            mat.setflags(write=False)
            self._vectors = mat
        return self._vectors

    def _check_point(self, z):
        return _vector(z, self.dimension)

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
        values = self._dots(z)
        if mask is None or mask.is_full:
            return np.arange(self.num_atoms), values
        ids = mask.active_ids()
        return ids, values[ids]

    def _dots(self, z):
        return self.atoms_matrix() @ z

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
        if self._implicit_lmo is not None and (mask is None or mask.is_full):
            return self._implicit_lmo(z)
        return best_atom(*self.dots(z, mask))

    def oracle(self, features, v, mask=None):
        """The linear oracle at grad = features' v over mask (None: every
        atom): ``(grad, scores, (atom_id, sigma))``. scores is ``(ids,
        values)``, values <p, -grad> over the active atoms, ids ascending,
        and the answer is its first maximum (best_atom). At full mask the
        implicit kinds answer through lmo and score no atom: scores is None."""
        grad = features.T @ v
        if self._implicit_lmo is not None and (mask is None or mask.is_full):
            return grad, None, self.lmo(-grad)
        scores = self.dots(-grad, mask)
        return grad, scores, best_atom(*scores)

    def _run_oracle(self, features, screened, other=None):
        """oracle(features, v, mask) as oracle(v, mask) for one state and
        screening setting (solver.step), grad or scores None where it forms
        neither. A state has one set and one loss, so it checks neither;
        other is the state's oracle for the other setting, or None."""
        return lambda v, mask: self.oracle(features, v, mask)

    def move(self, x, theta, xi, atom_id):
        """x <- (1 - theta) x + theta * xi * atom, in place and bit-identical
        to that formula; returns the one coordinate whose magnitude can have
        grown, or None when any can."""
        x *= 1.0 - theta
        x += theta * (xi * self.atom_vector(atom_id))
        return None

    def support_value(self, z, mask=None):
        """Max of <p, z> over active atoms (the support function of their hull)."""
        return self.lmo(z, mask)[1]

    def gauge_value(self, x):
        """Smallest total weight of a nonnegative atom combination equal to x.

        Closed form for the implicit kinds; a small linear program for
        explicit lists. Raises InfeasibleGaugeError when x is outside the
        cone of the atoms.
        """
        return self.gauge_decomposition(x)[0]

    def iterate_gauge(self, x):
        """|x|_1 / C, the gauge of x, on the signed basis; None elsewhere,
        where the solver bounds the gauge by its ledger sum. (The hypercube's
        max|x| / C is tighter, and would move the objectives in its traces.)"""
        return None

    def gram_bound(self, features):
        """Upper bound on |<A p, A q>| over the set's own atom pairs, A =
        features, in closed form from the column norms of A for the implicit
        kinds: C^2 max|a_k|^2 (signed basis), C^2 (sum_k |a_k|)^2 (hypercube)."""
        mapped = features @ self.atoms_matrix().T  # columns are A p
        gram = mapped.T @ mapped
        return float(np.max(np.abs(gram)))

    def gauge_decomposition(self, x):
        """Gauge value together with one witness decomposition.

        Returns ``(value, coeffs)`` where coeffs is a dense array over atom
        ids with ``coeffs @ atoms == x`` and ``coeffs.sum() == value``.
        A small linear program over the enumerated atoms except on the
        signed basis, so a hypercube must be desk scale (atoms_matrix).
        """
        return self._gauge_lp(self._check_point(x))

    def _gauge_lp(self, x):
        # imported on first use: no other path of the package needs
        # scipy.optimize, and loading it is a large share of the import time
        from scipy.optimize import linprog

        m = self.num_atoms
        if not np.any(x):
            return 0.0, np.zeros(m)
        vectors = self.atoms_matrix()
        res = linprog(
            c=np.ones(m),
            A_eq=vectors.T,
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
            sub = vectors[basic].T
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
        """Stable description for problem fingerprints, in pieces, the atoms
        as a buffer rather than a copy."""
        return [f"{self.kind}|{self.dimension}|{self.scale!r}".encode()]

    def __repr__(self):
        return (
            f"AtomicSet(kind={self.kind!r}, dimension={self.dimension}, "
            f"scale={self.scale}, num_atoms={self.num_atoms})"
        )


class _SignedBasis(AtomicSet):
    kind = SIGNED_BASIS

    @property
    def num_atoms(self):
        return 2 * self.dimension

    def _signed(self, atom_id):
        """``(k, entry)`` of a signed-basis atom: its coordinate, +/-C."""
        d = self.dimension
        return atom_id % d, (self.scale if atom_id < d else -self.scale)

    def _atom_vector(self, atom_id):
        k, entry = self._signed(atom_id)
        v = np.zeros(self.dimension)
        v[k] = entry
        return v

    def _image(self, features, atom_id):
        """One scaled column of features, O(n) instead of O(n d)."""
        k, entry = self._signed(atom_id)
        return entry * features[:, k]

    def _enumerate(self):
        eye = np.eye(self.dimension) * self.scale
        return np.vstack([eye, -eye])

    def _dots(self, z):
        return self.scale * np.concatenate([z, -z])

    def _implicit_lmo(self, z):
        # the scores are w = C*z, then -w (negation is exact): +e_hi wins
        # unless -w_lo is strictly larger, so a cross-sign tie goes to the
        # lower id; a NaN is the first max and min of w and fails the
        # comparison, so its + atom wins, as in best_atom
        w = self.scale * z
        hi, lo = int(w.argmax()), int(w.argmin())
        if w[hi] < -w[lo]:
            return self.dimension + lo, float(-w[lo])
        return hi, float(w[hi])

    def _run_oracle(self, features, screened, other=None):
        """A pruned mask scores from a copy of its columns (_ActiveColumns)
        and, unscreened on data of at least _WINDOW_FLOOR entries, a full mask
        from a window of them while it holds (_Window); the copy is other's,
        if other has one, so that a state keeps one."""
        pruned = getattr(other, "pruned", other) or _ActiveColumns(self, features)
        if screened or features.size < _WINDOW_FLOOR:
            return pruned
        return _Window(pruned)

    def move(self, x, theta, xi, atom_id):
        """Every entry but x_k becomes (1 - theta) x_j plus the formula's
        zero term theta * (xi * 0), which turns a -0 into +0 as the formula
        does; returns k."""
        k, entry = self._signed(atom_id)
        x_k = x.item(k)  # a float, whose arithmetic is numpy's to the bit
        x *= 1.0 - theta
        x += theta * (xi * 0.0)
        x[k] = (1.0 - theta) * x_k + theta * (xi * entry)
        return k

    def iterate_gauge(self, x):
        return float(np.add.reduce(np.abs(x))) / self.scale  # sum() less its wrapper

    def gram_bound(self, features):
        return self.scale**2 * float(np.max(_column_sq_norms(features)))

    def gauge_decomposition(self, x):
        x = self._check_point(x)
        coeffs = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)])
        coeffs /= self.scale
        return self.iterate_gauge(x), coeffs


class _Hypercube(AtomicSet):
    kind = HYPERCUBE

    @property
    def num_atoms(self):
        return 2 ** self.dimension

    def _atom_vector(self, atom_id):
        # ids may exceed 64 bits, so the bits go through bytes
        raw = atom_id.to_bytes((self.dimension + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return self.scale * (1.0 - 2.0 * bits[: self.dimension])

    def _enumerate(self):
        if not self.enumerable:
            raise ContractViolationError(
                "hypercube vertex enumeration is limited to desk scale"
            )
        ids = np.arange(self.num_atoms)
        bits = (ids[:, None] >> np.arange(self.dimension)[None, :]) & 1
        return self.scale * (1.0 - 2.0 * bits)

    def _implicit_lmo(self, z):
        # implicit sign oracle: works at any dimension; bit k of the id is
        # set where z_k < 0, so ties at zero take the lower id
        bits = np.packbits(z < 0, bitorder="little")
        atom_id = int.from_bytes(bits.tobytes(), "little")
        return atom_id, self.scale * float(np.add.reduce(np.abs(z)))

    def gauge_value(self, x):
        return float(np.max(np.abs(self._check_point(x))) / self.scale)

    def gram_bound(self, features):
        return self.scale**2 * float(np.sum(np.sqrt(_column_sq_norms(features)))) ** 2


class _ExplicitList(AtomicSet):
    kind = EXPLICIT

    def __init__(self, vectors, scale):
        mat = _checked(
            lambda rows: np.asarray(rows, dtype=float), vectors,
            lambda m: m.ndim == 2, "expected a 2-d array of atom rows",
        )
        super().__init__(mat.shape[1], scale)
        if mat.shape[0] == 0:
            raise ContractViolationError(
                "explicit atom list must be a nonempty (m, d) array"
            )
        if not np.all(np.isfinite(mat)):
            raise ContractViolationError("atom vectors must be finite")
        # scale folded in once, here
        self._vectors = mat * self.scale
        self._vectors.setflags(write=False)

    def fingerprint_parts(self):
        return super().fingerprint_parts() + [b"|", np.ascontiguousarray(self._vectors)]
