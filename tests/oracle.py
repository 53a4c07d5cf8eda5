"""Dense enumerated-basis oracle for the graded operators.

Independent check path: the whole truncated space is enumerated set by
set, each operator is assembled entry by entry from the literal defining
sums (including the half-weighted double sum over ordered pairs, and the
raw outside-pair double sum of the degree-lowering part), and solves use a
direct sparse factorization.  The set space is enumerated here
(`enumerate_truncation`), the translation classes are built from
`shift_set`, the kernel's point group acts on the sets point by point, and
the class and orbit checks below are full (every set, every class
indicator, every group element), not sampled.  Nothing here is shared with
the package's packed engine beyond the space definition and the group
itself; `lift` reads the engine's orbit vectors as set vectors, orbit ->
class -> set, through `index_of_subset` and the engine's orbit map.
"""

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from torusgas.packed import canonical


def _minus(p, z):
    return tuple(a - b for a, b in zip(p, z))


def _is_zero(p) -> bool:
    return all(c == 0 for c in p)


def shift_set(A: tuple, z) -> tuple:
    """Shift a subset by -z, exchanging the origin with -z when z is a member.

    For z outside A this is the plain translate A - z.  For z in A the
    translate contains the origin, which is exchanged with -z so the result
    stays inside the punctured lattice.
    """
    A = canonical(A)
    z = tuple(int(c) for c in z)
    if _is_zero(z):
        return A
    shifted = [_minus(p, z) for p in A]
    if z in A:
        shifted = [p for p in shifted if not _is_zero(p)]
        neg = tuple(-c for c in z)
        if neg not in shifted:
            shifted.append(neg)
        return canonical(shifted)
    return canonical(shifted)


def in_truncation(trunc, A: tuple) -> bool:
    """Whether |A| <= max_degree and A u {0} has diameter <= radius."""
    if len(A) > trunc.max_degree:
        return False
    if not A:
        return True
    d = len(A[0])
    for ax in range(d):
        cs = [p[ax] for p in A] + [0]
        if max(cs) - min(cs) > trunc.radius:
            return False
    return True


def enumerate_truncation(dimension: int, trunc):
    """All sets of the truncated space, grouped by degree (small spaces only)."""
    r = trunc.radius
    pool = [p for p in itertools.product(range(-r, r + 1), repeat=dimension)
            if any(c != 0 for c in p)]
    by_degree = {}
    for n in range(1, trunc.max_degree + 1):
        sets_n = [canonical(c) for c in itertools.combinations(pool, n)]
        by_degree[n] = [A for A in sets_n if in_truncation(trunc, A)]
    return by_degree


def class_degrees(space) -> np.ndarray:
    """Degree of every class of a `PackedSpace`, read off its degree offsets."""
    counts = np.diff(space.offsets[1:])
    return np.repeat(np.arange(1, len(counts) + 1), counts)


def _support_map(analysis, odd=False):
    vals = analysis.asym_weights if odd else analysis.sym_weights
    return {tuple(int(c) for c in z): float(v)
            for z, v in zip(analysis.sym_offsets, vals) if v != 0.0}


class DenseOracle:
    def __init__(self, analysis, trunc):
        self.analysis = analysis
        self.trunc = trunc
        by_degree = enumerate_truncation(analysis.dimension, trunc)
        self.basis = []
        for n in sorted(by_degree):
            self.basis.extend(by_degree[n])
        self.index = {A: i for i, A in enumerate(self.basis)}
        self.size = len(self.basis)
        self.weights = np.array([1.0 / (len(A) + 1) for A in self.basis])
        self.s_map = _support_map(analysis, odd=False)
        self.a_map = _support_map(analysis, odd=True)
        d = analysis.dimension
        self.origin = tuple([0] * d)
        self.mat_sym = self._assemble_degree_preserving(self.s_map, half=True)
        self.mat_drift = self._assemble_degree_preserving(self.a_map, half=False)
        self.mat_raise = self._assemble_raising()
        self.mat_lower = self._assemble_lowering()
        self.set_class, self.classes = self._classes()
        self.class_size = np.asarray(self.classes.sum(axis=0)).ravel()
        # basis index of g A for every set A, one row per group element
        self.moves = np.array([[self.index[canonical(np.asarray(A) @ g.T)]
                                for A in self.basis] for g in analysis.group])

    def _classes(self):
        """Class label of every set and the set-by-class indicator matrix.

        The class of A holds A and shift_set(A, z) for z in A; every member
        must lie in the enumerated space.
        """
        smallest = np.arange(self.size)
        for A, i in self.index.items():
            for z in A:
                smallest[i] = min(smallest[i], self.index[shift_set(A, z)])
        _, label = np.unique(smallest, return_inverse=True)
        ind = sp.csr_matrix((np.ones(self.size), (np.arange(self.size), label)),
                            shape=(self.size, label.max() + 1))
        return label, ind

    # --- literal assembly -------------------------------------------------

    def _matrix(self, entries):
        """Sparse matrix summing (row, col, value) triples in their order."""
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        return sp.coo_matrix((np.array(vals, dtype=np.float64), (rows, cols)),
                             shape=(self.size, self.size)).tocsc()

    def _assemble_degree_preserving(self, wmap, half):
        m = []
        for A, row in self.index.items():
            members = set(A)
            # ordered pairs (x, y), both nonzero, exactly one inside A
            pairs = []
            for x in A:
                for v, w in wmap.items():
                    y = tuple(a + b for a, b in zip(x, v))
                    if any(y) and y not in members:
                        pairs.append((w, x, y, True))
            for y in A:
                for v, w in wmap.items():
                    x = tuple(a - b for a, b in zip(y, v))
                    if any(x) and x not in members:
                        pairs.append((w, x, y, False))
            for w, x, y, x_inside in pairs:
                if half:
                    w = 0.5 * w
                else:
                    # the drift sum runs only over (member, outside) pairs
                    if not x_inside:
                        continue
                target = canonical([p for p in A if p not in (x, y)]
                                   + ([y] if x_inside else [x]))
                col = self.index.get(target)
                if col is not None:
                    m.append((row, col, w))
                m.append((row, row, -w))
            for v, w in wmap.items():
                if v in members:
                    continue
                target = shift_set(A, v)
                col = self.index.get(target)
                if col is not None:
                    m.append((row, col, w))
                m.append((row, row, -w))
        return self._matrix(m)

    def _assemble_raising(self):
        m = []
        for A, row in self.index.items():
            for y in A:
                for x in A:
                    diff = tuple(a - b for a, b in zip(y, x))
                    a_val = self.a_map.get(diff, 0.0)
                    if a_val == 0.0:
                        continue
                    target = canonical([p for p in A if p != y])
                    if target:
                        m.append((row, self.index[target], 2.0 * a_val))
            for x in A:
                a_val = self.a_map.get(x, 0.0)
                if a_val == 0.0:
                    continue
                rest = canonical([p for p in A if p != x])
                if rest:
                    m.append((row, self.index[rest], 2.0 * a_val))
                    shifted = shift_set(rest, x)
                    col = self.index.get(shifted)
                    if col is not None:
                        m.append((row, col, -2.0 * a_val))
        return self._matrix(m)

    def _assemble_lowering(self):
        # literal double sum over outside pairs: for each candidate extra
        # point y, the coefficient is 2 sum over x outside A u {0} of a(y - x)
        m = []
        for A, row in self.index.items():
            if len(A) >= self.trunc.max_degree:
                continue
            outside = set(A) | {self.origin}
            candidates = set()
            for B in (canonical(list(A) + [tuple(q)])
                      for q in self._near_points(A)):
                if len(B) == len(A) + 1 and B in self.index:
                    candidates.add(B)
            for B in candidates:
                extra = [p for p in B if p not in set(A)]
                y = extra[0]
                coeff = 0.0
                for v, a_val in self.a_map.items():
                    x = tuple(yc - vc for yc, vc in zip(y, v))
                    if any(x) and x not in set(A):
                        coeff += 2.0 * a_val
                if coeff != 0.0:
                    m.append((row, self.index[B], coeff))
        return self._matrix(m)

    def _near_points(self, A):
        # candidate extra points: anything inside the truncation cube
        r = self.trunc.radius
        d = self.analysis.dimension
        pts = [p for p in itertools.product(range(-r, r + 1), repeat=d) if any(p)]
        return [p for p in pts if p not in set(A)]

    # --- dense-path operations --------------------------------------------

    def full_matrix(self, alpha):
        chi = alpha * (1.0 - alpha)
        return (self.mat_sym + (1.0 - 2.0 * alpha) * self.mat_drift
                + np.sqrt(chi) * (self.mat_raise + self.mat_lower))

    def current_vector(self, direction):
        b = np.zeros(self.size)
        for z, a in self.a_map.items():
            key = (z,)
            if key in self.index and a != 0.0:
                b[self.index[key]] = -2.0 * z[direction] * a
        return b

    def singleton_values(self, vec):
        """The values of a set vector on the single-point sets, keyed by point."""
        return {A[0]: float(vec[i]) for A, i in self.index.items() if len(A) == 1}

    def _resolvent_lu(self, alpha, shift):
        mat = (shift * sp.identity(self.size, format="csc")
               - self.full_matrix(alpha).tocsc())
        # minimum degree on A^T + A factors this nonsymmetric matrix faster
        # than the default COLAMD (3.4-3.5 s against 4.1-4.4 s for criterion
        # 3's three solves at d = 3, (2,2)); solutions agree to 1e-15 relative
        return splu(mat, permc_spec="MMD_AT_PLUS_A")

    def resolvent_direct(self, alpha, shift, direction):
        return self._resolvent_lu(alpha, shift).solve(self.current_vector(direction))

    def diffusion_direct(self, alpha, shift):
        """D(shift) = alpha sigma + chi <f_i, c_j>, the degree-weighted pairing
        of the direct solutions with the currents, all directions from one
        factorization."""
        currents = np.array([self.current_vector(i)
                             for i in range(self.analysis.dimension)])
        sols = self._resolvent_lu(alpha, shift).solve(currents.T).T
        chi = alpha * (1.0 - alpha)
        return alpha * self.analysis.covariance + chi * (sols * self.weights) @ currents.T

    def neg_norm_direct(self, b, reg):
        mat = reg * sp.identity(self.size, format="csc") - self.mat_sym.tocsc()
        u = splu(mat).solve(np.asarray(b, dtype=np.float64))
        return float(np.sum(self.weights * b * u))

    # --- translation classes ----------------------------------------------

    def class_average(self, v):
        """Replace set values by their class means (v may have columns)."""
        means = sp.diags(1.0 / self.class_size) @ (self.classes.T @ v)
        return self.classes @ means

    def translation_violation(self, x):
        """Largest deviation of a set vector from class constancy."""
        x = np.asarray(x, dtype=np.float64)
        return float(np.abs(x - self.class_average(x)).max())

    def class_violation(self, mat):
        """Largest deviation from class constancy of mat applied to every
        class indicator: zero when mat maps class-constant vectors to
        class-constant vectors."""
        image = sp.csr_matrix(mat @ self.classes)
        diff = image - sp.csr_matrix(self.class_average(image))
        return float(abs(diff).max()) if diff.nnz else 0.0

    def engine_classes(self, space):
        """Engine class index of every basis set; checks that the engine's
        classes are the oracle's, each with its n + 1 members."""
        cls = np.array([space.index_of_subset(A) for A in self.basis])
        assert np.all(cls >= 0) and space.n_sets == self.size
        degree = np.array([len(A) for A in self.basis])
        class_degree = class_degrees(space)
        assert np.array_equal(np.bincount(cls, minlength=space.size), class_degree + 1)
        assert np.array_equal(class_degree[cls], degree)
        # the same partition as the oracle's classes
        pairs = set(zip(self.set_class.tolist(), cls.tolist()))
        assert len(pairs) == space.size == self.classes.shape[1]
        return cls

    def class_lift(self, classes):
        """The lift of class vectors of a `PackedSpace` to set vectors in
        basis order: x_K / sqrt(n + 1) on every member of class K."""
        cls = self.engine_classes(classes)
        root = np.sqrt(np.array([len(A) for A in self.basis]) + 1.0)
        return lambda x: np.asarray(x)[cls] / root

    def lift(self, space):
        """The lift of the engine's orbit vectors to set vectors, orbit ->
        class -> set: x_O / sqrt(|O|) on every class of orbit O, then the
        class lift.  Checks first, on every set and group element, that the
        engine's orbit of a set's class is the set of classes its images
        g A lie in."""
        cls = self.engine_classes(space.classes)
        orbit = space.orbit[cls]
        assert np.array_equal(space.orbit[cls[self.moves]], np.broadcast_to(
            orbit, self.moves.shape))
        reached = np.sort(self.set_class[self.moves], axis=0)
        assert np.array_equal(space.orbit_size[orbit],
                              1 + (np.diff(reached, axis=0) != 0).sum(axis=0))
        assert space.symmetry_order == len(self.moves)
        to_sets = self.class_lift(space.classes)
        root = np.sqrt(space.orbit_size)
        return lambda x: to_sets(np.asarray(x)[space.orbit] / root[space.orbit])

    def group_violation(self, x):
        """Largest change of a set vector under any group element."""
        x = np.asarray(x, dtype=np.float64)
        return float(np.abs(x[self.moves] - x).max())
