"""Array-backed engine for the graded operators on the symmetry orbits of
the translation classes.

The solve space is the truncation `TruncationParams`: the finite subsets of
Z^d minus the origin with at most `max_degree` points whose union with the
origin has sup-norm diameter at most `radius`.  A degree-n set A shares its
translation class with the n sets (A u {0}) - z minus the origin, z in A.
The truncation is closed under this identity: B u {0} = (A u {0}) - z is a
translate of the n + 1 points of A u {0}, so it has their sup-norm diameter.
Every class therefore has exactly n + 1 members, and each part of the
operator (even, odd, raise/lower) maps class-constant functions to
class-constant functions.  `PackedSpace` keeps one entry per class and
never enumerates the sets themselves.

Every class has exactly one canonical member whose points are all
lexicographically positive: the shift of A u {0} by its lexicographically
smallest point.  The point pool is the radius cube in lexicographic order
without its middle point, the origin, so the canonical members are the
compatible sets drawn from the upper half of the pool, and -pool[i] is
pool[P - 1 - i].  A point's position, its coordinates read as a signed
number in base 4r + 1, subtracts like the point, so one table over the
radius-2r cube gives every point difference (`difference`), and no P x P
table is kept.  A class is stored as one integer, the code of its canonical
member (its sorted pool indices, `_BITS` bits each), and nothing else: the
degree-(n + 1) codes are built from the degree-n ones, block by block, by
appending each compatible larger pool index, which keeps them strictly
increasing.  Every code of a positive degree-n member lies below
every degree-(n + 1) code, so the whole code table is sorted, a class index
is the position of its code, and `find` is one binary search.  Rows are
decoded only where they are read.  A set whose smallest point is negative
is looked up through one member shift, by that point.

The kernel's point group (`KernelAnalysis.group`: the signed axis
permutations g with p(gz) = p(z) that fix every point of the odd support)
maps classes to classes, commutes with every operator part and leaves
every dual current invariant, so the solutions of every direction are
constant on the group orbits of the classes.  `OrbitSpace` keeps one
unknown per orbit and one orbit index per class.  The orbits are the
connected components of the action of the group's generators, a few
chosen greedily (`_generators`): each generator's class permutation is
read off the codes in bounded chunks (decode, move every point, sort each
row, `find`), and the smallest class index is propagated along those
permutations to a fixed point.  Each orbit is represented by its smallest
class index and ordered by it.  A kernel without symmetry has one class
per orbit, and the engine is then the class engine exactly.

Vectors are coordinates in the orthonormal orbit basis: the value of orbit
O is f(A) * sqrt((n + 1) |O|) for any member A of any of its classes, so the
lift x -> f is an isometry into the plain (counting) norm of set vectors.
Euclidean norms of orbit vectors are the full-space norms, the symmetric
part stays a symmetric matrix, and the degree-weighted pairing keeps its
1/(n + 1) weights, since all sets of an orbit share one degree.

Only the canonical member of each orbit's representative is assembled.  Its
columns are summed into orbits, each entry scaled by
sqrt(|O_row| / |O_col|) (and by sqrt((n_row + 1) / (n_col + 1)) for the
degree-changing arrows): by the group's commutation, the row of the
representative stands for the |O_row| rows of its orbit.  The clipped mass
sums over every set, but the representative's canonical member fixes that
sum.  The n exchange arrows and the rigid arrow of a member B are the
n + 1 moves "one point of B u {0} by v", and B u {0} is a translate of
A u {0}, so they are the same moves as A's.  Whether a move exists (no
collision) and stays inside (diameter at most `radius`) is invariant under
translations and signed axis permutations, so per offset every set of the
orbit clips the representative's count: n + 1 times per class, and a unit
orbit vector spreads its mass evenly over its classes, so the orbit's clip
weight is the representative's own.

Assembled are the degree-preserving arrows, with separate even and odd
weights, the even diagonal, and the degree-raising arrows R.
The rest follows from the odd part being antisymmetric in the
degree-weighted pairing (the product-measure inner product of the dual
space): the lowering arrows are minus the weighted adjoint of the raising
ones, -W^-1 R^T W with W = diag(1 / (n + 1)), and the odd part has no
occupation diagonal, since that coefficient sums the odd weights over
ordered pairs of points of A u {0}, which cancel.  Both identities carry
over to the orbit basis, whose weights are again 1 / (n + 1).  The
on-diagonal occupation coefficients keep their full lattice sums, so both
identities hold on the truncation exactly.  The operator at any density is
two sparse matvecs plus a diagonal, with the density entering only through
scalar coefficients, so one assembly serves a whole density grid.  So does
the stack of dual currents, one orbit vector per direction, which
`assemble` builds once per engine.

The degree-preserving arrows are stored slot-major: rows of similar arrow
count share a block of bounded size, whose (slots, rows) arrays list each
row's arrows in assembly order and pad the rest with weight 0 on a zero
entry appended to the input.  An arrow's even and odd weights are s(v) and
a(v) of its offset v times sqrt(|O_row| / |O_col|), so they depend only on
its weight class (offset, row orbit size, column orbit size), of which
there are few (97 at the acceptance truncation): a slot stores its class
code, two small tables the class weights, and one buffer the slot weights
of the current density, gathered from the tables.  A block's matvec is one
gather, one product and one sum over the slots, which runs in the same
order as a compressed-row matvec over the same arrows (a one-row block is
one contiguous run, which `np.add.reduce` would sum pairwise, so it is
accumulated instead).  The degree-changing arrows are coordinate arrays
sorted by row, then column, summed per row with `np.bincount`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .kernels import KernelAnalysis, TruncationParams

_BITS = 16  # per-point index field in the set encoding
_MASK = (1 << _BITS) - 1
# a slot block holds the rows whose arrow count is at least this share of
# its widest row's, so at most a fifth of its slots are padding
_BLOCK_FILL = 0.8
# passes over every class or every slot run in chunks of bounded size, so no
# transient grows with the space: a level is extended by masks of at most
# _CHUNK entries, generator images take _CHUNK classes at a time, and a slot
# block holds at most _CHUNK entries (one pool-wide mask row or one slot row
# alone may be wider)
_CHUNK = 32768


def canonical(points) -> tuple:
    """Sorted tuple-of-tuples form of a collection of lattice points."""
    return tuple(sorted(tuple(int(c) for c in p) for p in points))


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Sort each row of a few-column integer array in place and return it.

    Odd-even transposition: as many rounds of compare-exchange on
    neighbouring columns as there are columns, cheaper than
    `np.sort(axis=1)` on the at most `max_degree` columns of a set row.
    """
    n = rows.shape[1]
    for r in range(n):
        for j in range(r % 2, n - 1, 2):
            lo = np.minimum(rows[:, j], rows[:, j + 1])
            np.maximum(rows[:, j], rows[:, j + 1], out=rows[:, j + 1])
            rows[:, j] = lo
    return rows


class PackedSpace:
    """The translation classes of the truncated set space.

    `codes` holds the code of every class's canonical member, strictly
    increasing; class k is the k-th code, and the degree-n classes are
    `offsets[n]` up to `offsets[n + 1]`.  Classes are ordered by degree,
    then by canonical member; `size` counts them and `n_sets` counts the
    sets they stand for.
    """

    def __init__(self, dimension: int, trunc: TruncationParams):
        self.dimension = dimension
        self.trunc = trunc
        r = trunc.radius
        cube = np.indices((2 * r + 1,) * dimension).reshape(dimension, -1).T - r
        self.pool = np.delete(cube, len(cube) // 2, axis=0)  # (P, d) lexicographic
        p = len(self.pool)
        if p >= _MASK:
            raise ConfigError("truncation radius too large for the set encoding")
        self._half = p // 2  # pool[:P/2] is lexicographically negative
        # `_index` maps each position of the radius-2r cube (a negative one
        # from the end) to its pool index, -2 at 0, -1 outside the radius cube
        self._pos = self._position(self.pool)
        self._index = np.full((4 * r + 1) ** dimension, -1, dtype=np.int64)
        self._index[self._pos] = np.arange(p)
        self._index[0] = -2

        # canonical members: compatible sets of positive points only
        levels = [np.arange(self._half, p, dtype=np.int64)]
        for n in range(1, trunc.max_degree):
            levels.append(self._extend(levels[-1], n))
        self.offsets = np.zeros(trunc.max_degree + 2, dtype=np.int64)
        self.offsets[2:] = np.cumsum([len(level) for level in levels])
        self.codes = np.concatenate(levels)
        if not np.all(self.codes[1:] > self.codes[:-1]):
            raise InvariantViolation("class codes not strictly increasing")
        self.size = len(self.codes)
        self.n_sets = sum((n + 1) * len(level) for n, level in enumerate(levels, 1))

    def _extend(self, codes: np.ndarray, n: int) -> np.ndarray:
        """Codes of the degree-(n + 1) canonical members from the degree-n ones.

        Each member gains one pool index above its largest whose point is
        within `radius` of all of its points on each axis (on axis 0 every
        such index is, as the points are positive).  `np.nonzero` walks the
        mask row by row, so the new codes are strictly increasing, as their
        prefixes are.
        """
        r = self.trunc.radius
        cols = np.arange(len(self.pool))
        step = max(1, _CHUNK // len(cols))
        out = [np.zeros(0, dtype=np.int64)]
        for start in range(0, len(codes), step):
            block = codes[start:start + step]
            rows = self.decode(block, n)
            low = rows[:, -1].min() + 1
            mask = cols[low:] > rows[:, -1:]
            for ax in range(1, self.dimension):
                points = self.pool[rows, ax]
                mask &= self.pool[low:, ax] >= points.max(axis=1, keepdims=True) - r
                mask &= self.pool[low:, ax] <= points.min(axis=1, keepdims=True) + r
            which, k = np.nonzero(mask)
            out.append((block[which] << _BITS) | (k + low))
        return np.concatenate(out)

    def _position(self, coords: np.ndarray) -> np.ndarray:
        return coords @ (4 * self.trunc.radius + 1) ** np.arange(self.dimension - 1, -1, -1)

    def lookup_points(self, coords: np.ndarray) -> np.ndarray:
        """Pool indices of coordinate rows; -1 outside the cube or at 0."""
        # a point beyond the radius-2r cube reads the origin's -2, as -1
        near = (np.abs(coords) <= 2 * self.trunc.radius).all(axis=-1, keepdims=True)
        return np.maximum(self._index[self._position(np.where(near, coords, 0))], -1)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        code = rows[:, 0].copy()
        for j in range(1, rows.shape[1]):
            code = (code << _BITS) | rows[:, j]
        return code

    def decode(self, codes: np.ndarray, n: int) -> np.ndarray:
        """The sorted pool-index rows, (len(codes), n), of degree-n codes."""
        rows = np.empty((len(codes), n), dtype=np.int64)
        for j in range(n):
            rows[:, j] = (codes >> (_BITS * (n - 1 - j))) & _MASK
        return rows

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Class indices of sorted index rows; -1 when absent or invalid.

        A row whose smallest point z is negative is first moved to its
        canonical member, (A u {0}) - z minus the origin.
        """
        rows = np.asarray(rows, dtype=np.int64)
        # a sorted row holds a negative entry iff its first one is negative;
        # such a row's code is negative, below every class code
        valid = rows[:, 0] >= 0
        moved = valid & (rows[:, 0] < self._half)
        if moved.any():
            rows = rows.copy()
            z = rows[moved, :1]
            shifted = self.difference(z, rows[moved])
            shifted[:, 0] = len(self.pool) - 1 - z[:, 0]  # -pool[z]
            rows[moved] = _sort_rows(shifted)
            valid[moved] = shifted[:, 0] >= 0
        code = self.encode(rows)
        pos = np.minimum(np.searchsorted(self.codes, code), self.size - 1)
        return np.where(valid & (self.codes.take(pos) == code), pos, -1)

    def difference(self, i, j) -> np.ndarray:
        """Pool index of pool[j] - pool[i], broadcast; -1 outside the cube,
        -2 at the origin.  Two points may share a set when it is >= 0."""
        return self._index[self._pos[j] - self._pos[i]]

    def translate(self, v) -> np.ndarray:
        """Pool index of pool[i] + v for every pool point, as `difference`."""
        iv = self.lookup_points(np.asarray(v, dtype=np.int64))
        if iv < 0:
            raise ConfigError("offset outside the truncation cube")
        p = len(self.pool)
        return self.difference(p - 1 - iv, np.arange(p))

    def index_of_subset(self, A) -> int:
        """Class index of a subset; -1 outside the truncated space."""
        A = canonical(A)
        n = len(A)
        if n == 0 or n > self.trunc.max_degree:
            return -1
        idx = self.lookup_points(np.array(A, dtype=np.int64))
        if np.any(idx < 0):
            return -1
        return int(self.find(np.sort(idx)[None, :])[0])


class OrbitSpace:
    """The orbits of the translation classes under a kernel's point group.

    `classes` is the enumerated class space.  `orbit` maps a class to its
    orbit, `rep` an orbit to its representative (its smallest class index)
    and `orbit_size` counts the classes of an orbit.  Orbits are ordered by
    representative, hence by degree; `size` counts them, and `degree` and
    `weight` (1 / (n + 1)) are per orbit.  `n_sets` counts the sets of the
    space and `symmetry_order` the group elements.
    """

    def __init__(self, classes: PackedSpace, group: np.ndarray):
        self.classes = classes
        self.trunc = classes.trunc
        self.n_sets = classes.n_sets
        self.symmetry_order = len(group)
        # label propagation along each generator's class permutation, in
        # place; a permutation of finite order closes its cycles, so the
        # fixed point labels every class with the smallest class index of
        # its orbit
        label = np.arange(classes.size, dtype=np.int32)
        images = [_class_image(classes, g) for g in _generators(group)]
        changed = bool(images)
        while changed:
            before = label.copy()
            for image in images:
                np.minimum(label, label[image], out=label)
            changed = not np.array_equal(label, before)
        is_rep = label == np.arange(classes.size, dtype=np.int32)
        self.rep = np.flatnonzero(is_rep)
        index = np.cumsum(is_rep, dtype=np.int32)  # 1 + orbit index of each rep
        index -= 1
        self.orbit = index[label]
        self.orbit_size = np.bincount(self.orbit)
        self.size = len(self.rep)
        self.degree = np.searchsorted(classes.offsets, self.rep, side="right") - 1
        self.weight = 1.0 / (self.degree + 1.0)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Degree-weighted inner product; equals that of the lifted vectors."""
        return float(np.sum(self.weight * x * y))


def _closure(gens: list, identity: np.ndarray) -> dict:
    """The group a list of elements of a finite matrix group generates, by key."""
    reached = {identity.tobytes(): identity}
    frontier = [identity]
    while frontier:
        fresh = {}
        for a in frontier:
            for h in gens:
                b = a @ h
                if b.tobytes() not in reached:
                    fresh[b.tobytes()] = b
        reached.update(fresh)
        frontier = list(fresh.values())
    return reached


def _generators(group: np.ndarray) -> list:
    """A generating subset of a finite matrix group, without the identity.

    Each step adds the element (the first in group order) whose closure with
    the generators so far is largest, so few generators are taken: each one
    costs `OrbitSpace` a class image.
    """
    gens = []
    reached = _closure(gens, group[0])  # group[0] is the identity
    while len(reached) < len(group):
        gens.append(max((g for g in group if g.tobytes() not in reached),
                        key=lambda g: len(_closure(gens + [g], group[0]))))
        reached = _closure(gens, group[0])
    return gens


def _class_image(space: PackedSpace, g: np.ndarray) -> np.ndarray:
    """Class index of g K for every class K, from the canonical members."""
    moved = space.lookup_points(space.pool @ g.T)
    image = np.empty(space.size, dtype=np.int32)
    for n in range(1, space.trunc.max_degree + 1):
        for start in range(space.offsets[n], space.offsets[n + 1], _CHUNK):
            stop = min(start + _CHUNK, space.offsets[n + 1])
            rows = moved[space.decode(space.codes[start:stop], n)]
            found = space.find(_sort_rows(rows))
            if np.any(found < 0):
                raise InvariantViolation("a point-group image left the truncated space")
            image[start:stop] = found
    return image


@dataclass
class PackedOperator:
    """Assembled orbit-level arrow data for one kernel on one packed space."""

    space: OrbitSpace
    analysis: KernelAnalysis
    slot_rows: np.ndarray    # the rows of the slot blocks, block after block
    slot_cols: list          # per block, (slots, rows) int32 degree-preserving arrow targets
    slot_class: list         # per block, the weight class of the same slots (0 on pads)
    class_even: np.ndarray   # even weight of each class
    class_odd: np.ndarray    # odd weight of each class
    diag_even: np.ndarray
    change_rows: np.ndarray  # degree-changing arrows (shared density scalar),
    change_cols: np.ndarray  # sorted by row, then column
    change_vals: np.ndarray
    clip_weight: np.ndarray  # per-orbit clipped-arrow weight, see clipped_outflow
    currents: np.ndarray     # (d, orbits): the dual current of each direction

    def __post_init__(self):
        self._composed = None  # per block, the slot weights at density _cd
        self._cd = None

    @property
    def nnz(self) -> int:
        """Stored arrows, pads not counted."""
        pad = self.space.size
        return (sum(int(np.count_nonzero(cols != pad)) for cols in self.slot_cols)
                + len(self.change_vals))

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this engine, its orbit level and its class
        level keep, the composed slot weights of the last density included."""
        total = 0
        for level in (self, self.space, self.space.classes):
            for value in vars(level).values():
                for a in value if isinstance(value, list) else [value]:
                    if isinstance(a, np.ndarray):
                        total += a.nbytes
        return total

    def preserving(self, x: np.ndarray, weights: list) -> np.ndarray:
        """Degree-preserving arrows applied to x, with per-block slot weights."""
        padded = np.append(x, 0.0)
        out = np.empty(len(x))
        start = 0
        for cols, w in zip(self.slot_cols, weights):
            stop = start + cols.shape[1]
            terms = padded.take(cols)
            terms *= w
            if terms.shape[1] == 1 and len(terms) > 1:
                # one contiguous run, which add.reduce would sum pairwise
                out[start] = np.add.accumulate(terms[:, 0])[-1]
            else:
                np.add.reduce(terms, axis=0, out=out[start:stop])
            start = stop
        y = np.empty_like(out)
        y[self.slot_rows] = out
        return y

    def changing(self, x: np.ndarray) -> np.ndarray:
        """Degree-changing arrows applied to x."""
        return np.bincount(self.change_rows, weights=self.change_vals * x[self.change_cols],
                           minlength=len(x))

    def composed(self, cd: float) -> list:
        """Per-block slot weights odd * cd + even, with its two roundings.

        The weights are composed on the class tables and gathered into the
        same buffers at every change of cd.  At cd = 0 they are the even
        weights bit for bit: x + (+-0) = x, and +0 + -0 = +0.
        """
        if self._cd != cd:
            if self._composed is None:
                self._composed = [np.empty(c.shape) for c in self.slot_class]
            t = self.class_odd * cd
            t += self.class_even
            for w, c in zip(self._composed, self.slot_class):
                t.take(c, out=w)
            self._cd = cd
        return self._composed

    def apply_full(self, x: np.ndarray, alpha: float) -> np.ndarray:
        """Apply (even part) + (1 - 2 alpha)(odd part) + sqrt(chi)(raise+lower)."""
        y = self.preserving(x, self.composed(1.0 - 2.0 * alpha))
        y += self.diag_even * x
        y += np.sqrt(alpha * (1.0 - alpha)) * self.changing(x)
        return y

    def apply_sym(self, x: np.ndarray) -> np.ndarray:
        return self.preserving(x, self.composed(0.0)) + self.diag_even * x

    def resolvent_matvec(self, x: np.ndarray, alpha: float, lam: float) -> np.ndarray:
        return lam * x - self.apply_full(x, alpha)

    def clipped_outflow(self, x: np.ndarray) -> float:
        """Per-arrow squared mass the operator sends outside the space.

        Sum over every set of the space (every member of every class of
        every orbit) of the squared single-arrow contributions at clipped
        targets, in the degree-weighted norm: an upper-bound proxy for the
        squared norm of the dropped image.
        """
        return float(np.dot(self.clip_weight, x * x))


def _exchange(space: PackedSpace, sets_n: np.ndarray, m: int, move: np.ndarray):
    """Member m moved by v: (arrow exists, target inside the space, new point).

    `move` is `space.translate(v)`.
    """
    y = move[sets_n[:, m]]
    exists = y != -2
    for j in range(sets_n.shape[1]):
        if j != m:
            exists &= y != sets_n[:, j]
    inside = exists & (y >= 0)
    safe = np.where(inside, y, 0)
    for j in range(sets_n.shape[1]):
        if j != m:
            inside &= space.difference(safe, sets_n[:, j]) >= 0
    return exists, inside, y


def _rigid(sets_n: np.ndarray, back: np.ndarray):
    """Whole set shifted by -v: (arrow exists, target inside, target rows).

    `back` is `space.translate(-v)`; translation keeps the rows sorted.
    """
    shifted = back[sets_n]
    exists = shifted[:, 0] != -2
    inside = shifted[:, 0] >= 0
    for j in range(1, shifted.shape[1]):
        exists &= shifted[:, j] != -2
        inside &= shifted[:, j] >= 0
    return exists, inside, shifted


def _find_all(space: PackedSpace, rows: np.ndarray) -> np.ndarray:
    tgt = space.find(rows)
    if np.any(tgt < 0):
        raise InvariantViolation("target inside the truncation missing from the space")
    return tgt


def assemble(space: PackedSpace, analysis: KernelAnalysis) -> PackedOperator:
    """Build the orbit-level arrow matrices for a kernel on an enumerated space.

    The engine's `space` is the `OrbitSpace` of `space` under the kernel's
    point group; rows are read from the orbit representatives only.  The
    dual currents -2 z_i a(z) on the singletons {z} are built here once, as
    the engine's `currents`: class coordinates, summed over each orbit and
    divided by the square root of its size.  `check_kernel` puts every
    singleton of the kernel's support inside the space.
    """
    trunc = space.trunc
    trunc.check_kernel(analysis)
    orbits = OrbitSpace(space, analysis.group)
    orbit, orbit_size = orbits.orbit, orbits.orbit_size
    size = orbits.size

    offsets = analysis.sym_offsets.astype(np.int64)
    svals = analysis.sym_weights
    avals = analysis.asym_weights

    # odd weight a(pool[i]) per pool point, with a 0 at the sentinels -2 and
    # -1: a(pool[i] - pool[j]) is a_at[space.difference(j, i)]
    a_at = np.zeros(len(space.pool) + 2)
    a_at[space.lookup_points(offsets)] = avals

    # a slot's weight depends on its offset and on the orbit sizes of its row
    # and its column: with k distinct orbit sizes, the slot of offset f from
    # an orbit of the a-th size to one of the b-th has the weight class
    # 1 + (f k + a) k + b, and class 0 is the pad
    sizes = np.flatnonzero(np.bincount(orbit_size))
    size_code = np.searchsorted(sizes, orbit_size)
    k = len(sizes)
    scale = np.sqrt(sizes[:, None] / sizes[None, :]).ravel()
    class_even = np.concatenate([[0.0], (svals[:, None] * scale).ravel()])
    class_odd = np.concatenate([[0.0], (avals[:, None] * scale).ravel()])
    class_dtype = np.min_scalar_type(len(class_even) - 1)

    # degree-preserving arrows, rows from the representatives' canonical
    # members, one column per (offset, member or rigid shift): column f of
    # a degree-n row moves by offset f // (n + 1)
    cols_all = np.full((size, len(offsets) * (trunc.max_degree + 1)), -1, dtype=np.int32)
    diag_even = np.zeros(size)
    empty = np.zeros(0, dtype=np.intp)  # a symmetric kernel raises nothing
    up_rows, up_cols, up_vals = [empty], [empty], [np.zeros(0)]
    clip_weight = np.zeros(size)

    def raising(krow, tgt, vals, scale):
        cols = orbit[tgt]
        up_rows.append(krow)
        up_cols.append(cols)
        up_vals.append(vals * scale * np.sqrt(orbit_size[krow] / orbit_size[cols]))

    for n in range(1, trunc.max_degree + 1):
        krow = np.nonzero(orbits.degree == n)[0]  # contiguous: orbits follow degree
        nn = len(krow)
        if nn == 0:
            continue
        sets_n = space.decode(space.codes[orbits.rep[krow]], n)  # representatives
        cols2d = cols_all[krow[0]:krow[-1] + 1]  # views
        diag_n = diag_even[krow[0]:krow[-1] + 1]
        f = 0
        for v, sv, av in zip(offsets, svals, avals):
            wsq = (sv * sv + av * av) / (n + 1.0)
            move, back = space.translate(v), space.translate(-v)
            clipped = np.zeros(nn, dtype=np.int64)
            for m in [*range(n), None]:  # member m moved by v, or the rigid shift
                exists, inside, hit = (_rigid(sets_n, back) if m is None
                                       else _exchange(space, sets_n, m, move))
                clipped += exists & ~inside
                np.subtract(diag_n, sv, out=diag_n, where=exists)
                if m is None:
                    rows_new = hit[inside]
                else:
                    rows_new = sets_n[inside]
                    rows_new[:, m] = hit[inside]
                    _sort_rows(rows_new)
                cols2d[inside, f] = orbit[_find_all(space, rows_new)]
                f += 1
            # every member of the class clips the same count (module docstring)
            clip_weight[krow] += wsq * (n + 1) * clipped

        # degree-raising arrows (rows of degree >= 2 read one point fewer)
        if n >= 2:
            scale = np.sqrt((n + 1.0) / n)
            keep_slots = [[j for j in range(n) if j != m] for m in range(n)]
            for m in range(n):
                tgt = _find_all(space, sets_n[:, keep_slots[m]])
                coeff = np.zeros(nn)
                for j in keep_slots[m]:
                    coeff += a_at[space.difference(sets_n[:, j], sets_n[:, m])]
                sel = coeff != 0.0
                raising(krow[sel], tgt[sel], 2.0 * coeff[sel], scale)
                am = a_at[sets_n[:, m]]
                sel = am != 0.0
                if sel.any():
                    raising(krow[sel], tgt[sel], 2.0 * am[sel], scale)
                    ridx = space.difference(sets_n[sel, m][:, None],
                                            sets_n[sel][:, keep_slots[m]])
                    if np.any(ridx < 0):
                        raise InvariantViolation("rebased subset left the cube")
                    raising(krow[sel], _find_all(space, ridx), -2.0 * am[sel], scale)

    # blocks of rows, widest first: a block takes every row whose arrow count
    # is at least _BLOCK_FILL of its first row's, and at most _CHUNK slot
    # entries (one row alone may be wider), which bounds the matvec's
    # temporaries; each row's arrows move to its first slots, in assembly
    # order, and its pad slots read the zero entry appended to the input
    counts = np.count_nonzero(cols_all >= 0, axis=1)
    slot_rows = np.argsort(-counts, kind="stable")
    ranked = counts[slot_rows]
    slot_cols, slot_class = [], []
    start = 0
    while start < size:
        slots = ranked[start]
        stop = int(np.searchsorted(-ranked, -_BLOCK_FILL * slots, side="right"))
        stop = min(stop, start + max(1, _CHUNK // max(slots, 1)))
        rows = slot_rows[start:stop]
        # (slots, rows) in C order, so the sum over slots streams whole rows
        f = np.argsort(cols_all[rows] < 0, axis=1, kind="stable")[:, :slots].T.copy()
        # int32, as in cols_all: half the bytes of intp indices, and `take`
        # casts one block at a time
        cols = cols_all[rows, f]
        pad = cols < 0
        cols[pad] = 0
        # f becomes the weight class of each slot, in place
        f //= orbits.degree[rows] + 1  # its offset
        f *= k
        f += size_code[rows]
        f *= k
        f += size_code[cols]
        f += 1
        f[pad] = 0
        cols[pad] = size
        slot_cols.append(cols)
        slot_class.append(f.astype(class_dtype))
        start = stop

    # raising arrows with repeats summed in assembly order, zeros dropped
    key, where = np.unique(np.concatenate(up_rows) * size + np.concatenate(up_cols),
                           return_inverse=True)
    vals = np.bincount(where, weights=np.concatenate(up_vals), minlength=len(key))
    r, c = np.divmod(key[vals != 0.0], size)
    vals = vals[vals != 0.0]
    # lowering = minus the weighted adjoint of raising: L_ij = -R_ji w_j / w_i
    w = orbits.weight
    change_rows = np.concatenate([r, c])
    change_cols = np.concatenate([c, r])
    change_vals = np.concatenate([vals, -vals * w[r] / w[c]])
    order = np.lexsort((change_cols, change_rows))

    # the currents' class values, added into orbit coordinates in ascending
    # class order, as a bincount over all classes would add them
    class_currents = {}
    for z, a in zip(offsets, avals):
        if a != 0.0:
            k = space.index_of_subset((z,))
            class_currents[k] = (class_currents.get(k, 0.0)
                                 + -2.0 * z * a * (1.0 / np.sqrt(2.0)))
    currents = np.zeros((analysis.dimension, size))
    for k in sorted(class_currents):
        currents[:, orbit[k]] += class_currents[k]
    currents /= np.sqrt(orbit_size)

    # clipped mass in the degree-weighted norm of the lift:
    # f(A)^2 = x_O^2 / ((n + 1) |O|) on each of the |O| (n + 1) sets of O
    return PackedOperator(orbits, analysis, slot_rows, slot_cols, slot_class, class_even,
                          class_odd, diag_even, change_rows[order], change_cols[order],
                          change_vals[order], clip_weight * orbits.weight, currents)
