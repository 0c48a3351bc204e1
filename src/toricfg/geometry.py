"""Exact rational geometry for convex polygons in a rank-2 lattice.

Coordinates are ``int`` or ``fractions.Fraction`` throughout; nothing here
touches floating point.  A polygon is stored on ints as the record (L,
ring): a scale L (the lcm of its vertex denominators) and the vertex ring
times L.  That form is canonical (counterclockwise vertices starting at
the lexicographic minimum), so equality is plain tuple comparison and
fixtures are deterministic.  Its dimension, its halfplanes on the ints
(irredundant when full-dimensional, one per ring edge) and the Fraction
vertices and halfplanes are read off the ring, the views on first read,
for P_D's ampleness and normal fan, output and the oracles; the kernels
read the ring, and so do the side cones of the maximal cross-section
(``criterion``) and the tangent cones at a polygon's extremal faces
(``semigroup``), with the int vertex levels of ``_levels``.

Degenerate polygons (point, segment, empty set) are first-class values.

Every polygon cut out by halfplanes (P_D, nabla' and each colon polygon)
goes through one kernel, ``RatPolygon.from_halfplanes``, the sorted-normals
walk (de Berg et al., Computational Geometry: Algorithms and Applications,
ch. 4).  Its normal set is prepared once per normal tuple and cached
(``_normal_set``): the normals made primitive and merged, sorted by angle,
and the verdict of whether a gap of pi or more between neighbours makes
every region with them unbounded, or leaves one antiparallel pair to
decide between empty and unbounded.  The polygons of one fan share their
normals and differ only in the offsets, so a call mostly does the
per-offset work: the tightest offset per normal, then one walk over the
sorted lines that keeps the edges of the polygon, in O(n) exact integer
steps, whose meets in lowest terms are the vertices.

Every query about the chords of a polygon orthogonal to a direction v
reads one walk, ``_chord_pieces``: a two-pointer pass up the polygon's
two boundary chains that cuts it into pieces between consecutive vertex
levels, on each of which both chord ends are affine in the level.
``ChordWalk`` reads the chords at the vertex levels off the pieces (the
longest one, its ends and the length at every vertex level).  Lattice
points are counted, not listed: ``lattice_points`` returns the polygon
wrapped as ``LatticePoints``, whose ``len`` is the number of points and
whose ``level_count`` is the number of levels <p, v> they take.  Both sum
the lattice points of each chord by floor sums, in one loop over the
pieces, in O(n log size) int steps, so their cost grows with the vertex count and
the bit size, not with the width or the area.  Iterating walks the
columns, the pieces' integer levels for v = (1, 0), one at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd, lcm
from numbers import Rational
from typing import NamedTuple


class UnboundedRegion(ValueError):
    """Halfplane intersection is feasible but not bounded."""


class DegeneratePolygon(ValueError):
    """Operation needs a two-dimensional polygon."""


def dot(u, w):
    return u[0] * w[0] + u[1] * w[1]


def det(u, w):
    return u[0] * w[1] - u[1] * w[0]


def rot90(u):
    """Rotate by +90 degrees: (x, y) -> (-y, x)."""
    return (-u[1], u[0])


def neg(u):
    return (-u[0], -u[1])


def vsub(u, w):
    return (u[0] - w[0], u[1] - w[1])


def rational(x):
    """x as an exact rational: an int or Fraction as it is, any other
    number through Fraction.  A float raises TypeError, so 0.1 never becomes
    3602879701896397/2**55."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point is banned here; use int or Fraction")
    return Fraction(x)


def int_vector(u):
    """The integer pair (a, b) given as ints or integral Fractions.

    A float raises TypeError and a non-integral rational ValueError, so a
    direction or normal is never truncated.
    """
    a, b = u
    if type(a) is int and type(b) is int:
        return (a, b)
    out = []
    for x in (a, b):
        if not isinstance(x, Rational):
            raise TypeError(f"{x!r} is not an integer; floating point is banned here")
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        out.append(int(x.numerator))
    return tuple(out)


def is_primitive(u) -> bool:
    return gcd(u[0], u[1]) == 1


def primitivize(u):
    """Primitive integer vector pointing the way of ``u`` (rational allowed)."""
    x, y = u
    if type(x) is not int or type(y) is not int:
        x, y = Fraction(x), Fraction(y)
        den = lcm(x.denominator, y.denominator)
        x, y = x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)
    g = gcd(x, y)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return (x // g, y // g)


def meet(ni, oi, nj, oj):
    """The point where <u, ni> = oi and <u, nj> = oj meet, by Cramer's rule
    in homogeneous form: (x, y, d) with d > 0 stands for (x/d, y/d).  None
    for parallel lines.  Nothing is divided, so int offsets stay ints."""
    (a, b), (c, e) = ni, nj
    d = a * e - b * c
    if d == 0:
        return None
    x, y = oi * e - oj * b, a * oj - c * oi
    if d < 0:
        return -x, -y, -d
    return x, y, d


def angular_sorted(vectors) -> list:
    """Nonzero vectors by their angle in [0, 2pi) from the positive x-axis,
    by an exact key: the half-plane [0, pi) or [pi, 2pi), then the vector
    on the x-axis first, then -x/y, which grows with the angle inside
    either half."""
    return sorted(vectors, key=lambda r: (
        r[1] < 0 or (r[1] == 0 and r[0] < 0), r[1] != 0, r[1] and Fraction(-r[0], r[1])))


def wide_turn(vectors):
    """The first i at which the angularly sorted, distinct ``vectors``
    turn by pi or more from vectors[i] to the cyclically next one
    (det <= 0), or None.  None means they positively span the plane: a
    fan with these rays is complete and halfplanes with these normals cut
    out a bounded region."""
    for i, a in enumerate(vectors):
        if det(a, vectors[(i + 1) % len(vectors)]) <= 0:
            return i
    return None


def _cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Counterclockwise hull, starting at the lexicographic minimum.

    Collinear inputs collapse to the two extreme points, a single point to
    itself.  Exact over Fractions.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross3(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross3(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@lru_cache(maxsize=256, typed=True)
def _normal_set(*coords):
    """What a halfplane intersection takes from its normals alone, for the
    normals given flat as x1, y1, x2, y2, ...: (slots, divisors, normals,
    turn).  ``normals`` holds the distinct primitive normals in angular
    order, and input i is divisors[i] times normals[slots[i]].  turn is
    None when the normals positively span the plane; else () when every
    region with these normals is unbounded or (i, j), the positions of an
    antiparallel pair with every other normal strictly on one side, whose
    strip decides between empty and unbounded.

    Cached per normal tuple for ``RatPolygon.from_halfplanes``: a fan's
    P_D, nabla' and every colon polygon share their normals and differ
    only in the offsets.  The cache is typed, so the float 1.0 never hits
    the entry of the int 1 and is still rejected; an exception is never
    cached.
    """
    primitive, divisors = [], []
    for u in zip(coords[::2], coords[1::2]):
        a, b = int_vector(u)
        g = gcd(a, b)
        if g == 0:
            raise ValueError("halfplane normal must be nonzero")
        primitive.append((a // g, b // g))
        divisors.append(g)
    normals = angular_sorted(set(primitive))
    slot = {n: j for j, n in enumerate(normals)}
    turn = wide_turn(normals)
    if turn is not None:
        a, b = normals[turn], normals[(turn + 1) % len(normals)]
        turn = (slot[a], slot[b]) if a != b and det(a, b) == 0 else ()
    return tuple(slot[n] for n in primitive), tuple(divisors), tuple(normals), turn


class _PolygonFields(NamedTuple):
    scale: int
    ring: tuple


class RatPolygon(_PolygonFields):
    """Rational convex polygon stored on ints: the record (scale, ring).

    scale is L, the lcm of the vertex denominators (1 when empty).  ring
    holds the vertices times L as int pairs, counterclockwise from the
    lexicographic minimum.  Everything else is read off the ring: ``dim``
    is -1 (empty), 0 (point), 1 (segment) or 2; ``lines`` holds the
    halfplanes as (primitive integer normal, offset times L), meaning
    <u, normal> >= offset / L; ``vertices`` and ``halfplanes`` give the
    vertices and lines as Fractions.  The views are built on first read
    and kept in the instance dict that this class has over its named-tuple
    base, so equality and hash stay those of (scale, ring).
    """

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty() -> "RatPolygon":
        return RatPolygon(1, ())

    @staticmethod
    def from_vertices(points) -> "RatPolygon":
        coords = [rational(c) for x, y in points for c in (x, y)]
        if not coords:
            return RatPolygon.empty()
        scale, coords = over_common_denominator(coords)
        # a positive scale keeps the lexicographic order and the
        # orientation, so the hull is taken on the ints
        return _reduced(scale, convex_hull(zip(coords[::2], coords[1::2])))

    @staticmethod
    def from_halfplanes(halfplanes) -> "RatPolygon":
        """Canonical polygon cut out by ``<u, n> >= o`` constraints.

        Returns the empty polygon when infeasible and raises
        UnboundedRegion when the feasible set is unbounded.

        What depends on the normals alone is prepared once per normal
        tuple by ``_normal_set``: each normal checked and made primitive,
        the inputs that merge into one primitive normal, the angular order
        and the verdict of ``wide_turn``.  A call then only checks the
        offsets, divides each by its normal's gcd, keeps the tightest one
        per primitive normal, scales them to ints (by the lcm of their
        denominators, or not at all when every one is an int) and walks.

        A turn of pi or more between two cyclically consecutive normals
        (``wide_turn``) decides the region in closed form.  Wider than pi,
        or a lone normal, leaves an open halfplane of directions that
        every constraint gains along, so the region is nonempty and
        unbounded.  Exactly pi is an antiparallel pair with every other
        normal strictly on one side: the region is empty iff the pair's
        strip is (o1 + o2 > 0), and otherwise runs off to infinity inside
        the strip.

        With no such turn the normals positively span the plane and the
        region is bounded.  One walk over the sorted lines keeps a cyclic
        run of them with the meet of each consecutive pair.  A kept line
        B between neighbours A and C has its edge run backwards (from
        meet(A, B) to meet(B, C) against its direction) exactly when
        meet(A, B) lies strictly outside C, or equivalently meet(B, C)
        strictly outside A.  If A and C turn by less than pi, B's normal
        is a positive combination of theirs, so the wedge A and C cut out
        lies inside B: B is redundant and is dropped.  If
        they turn by pi or more, -C lies in the cone of A and B, so the
        whole wedge of A and B violates C and the region is empty.  The
        walk drops lines at the back as it goes and then, around the
        wrap, at both ends until every kept edge runs forwards.  Kept
        neighbours always turn by less than pi, so every meet exists and
        at least three lines stay.  Edges that all run forwards close up
        into a convex polygon (maybe a segment or a point) that lies in
        every kept halfplane and equals their intersection.  When three or
        more edges have positive length, their ends are its vertices in
        counterclockwise order; a segment or a point is the hull of the
        meets.  Only the ring is kept: the halfplanes of the polygon are
        read off it (``lines``).  Each line is pushed and
        dropped at most once, so the walk takes O(n) integer steps and n
        meets; only a normal tuple not seen before pays the O(n log n)
        sort.  The meets of the kept lines, in lowest terms, are the
        stored ring (``polygon_of_meets``).
        """
        halfplanes = list(halfplanes)  # read twice, so a generator works too
        if not halfplanes:
            raise ValueError("need at least one halfplane")
        coords = [c for (a, b), _ in halfplanes for c in (a, b)]
        slots, divisors, normals, turn = _normal_set(*coords)
        best, ints = [None] * len(normals), True
        for j, g, (_, o) in zip(slots, divisors, halfplanes):
            if type(o) is not int:
                o, ints = rational(o), False
            if g != 1:
                o, ints = Fraction(o, g), False
            if best[j] is None or best[j] < o:
                best[j] = o
        # Scaled by the lcm of the offset denominators, the region has int
        # offsets and every vertex is an int triple from meet.
        scale = 1
        if not ints:
            scale, best = over_common_denominator(best)

        if turn is not None:
            if turn and best[turn[0]] + best[turn[1]] > 0:
                return RatPolygon.empty()
            raise UnboundedRegion("feasible but unbounded halfplane intersection")

        # lines[j] and lines[j + 1] meet at meets[j]; a meet (x, y, d) lies
        # strictly outside <u, (a, b)> >= o iff x*a + y*b < o*d
        lines, meets = [(normals[0], best[0])], []
        for n, o in zip(normals[1:], best[1:]):
            a, b = n
            while meets:
                x, y, d = meets[-1]
                if x * a + y * b >= o * d:
                    break
                if det(lines[-2][0], n) <= 0:
                    return RatPolygon.empty()
                lines.pop()
                meets.pop()
            meets.append(meet(*lines[-1], n, o))
            lines.append((n, o))
        # around the wrap: the edges of lines[-1] and of lines[lo]
        lo = 0
        while True:
            ((a, b), o), (x, y, d) = lines[lo], meets[-1]
            if x * a + y * b < o * d:
                if det(lines[-2][0], lines[lo][0]) <= 0:
                    return RatPolygon.empty()
                lines.pop()
                meets.pop()
                continue
            ((a, b), o), (x, y, d) = lines[-1], meets[lo]
            if x * a + y * b < o * d:
                if det(lines[-1][0], lines[lo + 1][0]) <= 0:
                    return RatPolygon.empty()
                lo += 1
                continue
            break
        return polygon_of_meets(meets[lo:] + [meet(*lines[-1], *lines[lo])], scale)

    # -- views read off the ring --------------------------------------------

    @cached_property
    def vertices(self) -> tuple:
        """The vertices as Fraction pairs."""
        return tuple((Fraction(x, self.scale), Fraction(y, self.scale)) for x, y in self.ring)

    @cached_property
    def lines(self) -> tuple:
        """The halfplanes on the ints, as (primitive integer normal, offset
        times L); the one of ring edge i, from vertex i to the next, at i
        when two-dimensional."""
        return _halfplanes_of_hull(self.ring) if self.ring else ()

    @cached_property
    def halfplanes(self) -> tuple:
        """The halfplanes as (primitive integer normal, Fraction offset)."""
        return tuple((n, Fraction(o, self.scale)) for n, o in self.lines)

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return min(len(self.ring), 3) - 1

    @property
    def is_empty(self) -> bool:
        return self.dim < 0

    def _levels(self, direction) -> list:
        """<p, direction> * L for every vertex p, on the int ring."""
        a, b = direction
        return [x * a + y * b for x, y in self.ring]

    def support_min(self, direction) -> Fraction:
        """min <p, direction> over the polygon (the support offset)."""
        return Fraction(min(self._levels(direction)), self.scale)

    def support_max(self, direction) -> Fraction:
        return Fraction(max(self._levels(direction)), self.scale)

    def face(self, direction) -> list:
        """The vertices minimizing <p, direction>, in vertex order."""
        levels = self._levels(direction)
        low = min(levels)
        return [p for p, h in zip(self.vertices, levels) if h == low]

    def dilate(self, factor) -> "RatPolygon":
        """Scale about the origin by a nonnegative rational factor p/q: the
        int ring times p, over the scale times q."""
        c = rational(factor)
        if c < 0:
            raise ValueError("dilation factor must be nonnegative")
        if self.is_empty:
            return self
        if c == 0:
            return RatPolygon.from_vertices([(0, 0)])
        p = c.numerator
        return _reduced(self.scale * c.denominator, [(x * p, y * p) for x, y in self.ring])

    def area(self) -> Fraction:
        if self.dim < 2:
            return Fraction(0)
        ring = self.ring
        total = sum(det(p, q) for p, q in zip(ring, ring[1:] + ring[:1]))
        return Fraction(total, 2 * self.scale ** 2)


def over_common_denominator(values):
    """(L, [L*v for v in values]) for ints and Fractions v, where L is the
    lcm of their denominators, so the scaled values are ints."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def polygon_of_meets(meets, scale=1) -> RatPolygon:
    """The canonical polygon whose ring runs through ``meets``, the
    homogeneous meets (x, y, d) of ``meet`` of consecutive lines with int
    offsets, counterclockwise, for the region scaled by the int ``scale``.

    The one definition of the stored form for both ways of finding the
    meets, the halfplane walk of ``RatPolygon.from_halfplanes`` and the
    chambers of ``semigroup.theta``.  Divided by gcd(x, y, d), a meet's d
    is the lcm of the denominators of x/d and y/d, so the lcm of those d
    is the lcm of the vertex denominators, and the ring over it is the
    canonical one when ``scale`` is 1.  A repeated point (an edge of
    length 0) is dropped; fewer than three distinct points leave the hull
    of the meets.  The ring starts at its lexicographic minimum, and only
    rational offsets, scaled by a common denominator that the vertices
    need not keep, leave ``_reduced`` a gcd over the whole ring to take.
    """
    den = lcm(*[d for _, _, d in meets])
    if den == 1:
        ring = [(x, y) for x, y, _ in meets]
    else:
        den = lcm(*[d // gcd(x, y, d) for x, y, d in meets])
        ring = [(x * den // d, y * den // d) for x, y, d in meets]
    if len(set(ring)) < len(ring):
        kept = [p for j, p in enumerate(ring) if ring[j - 1] != p]
        ring = kept if len(kept) >= 3 else convex_hull(ring)
    k = ring.index(min(ring))
    ring = tuple(ring[k:] + ring[:k])
    if scale == 1:
        return RatPolygon(den, ring)
    return _reduced(den * scale, ring)


def _reduced(scale, ring) -> RatPolygon:
    """The polygon of an int ring over scale, both divided by the gcd of
    the scale and the ring's coordinates, which makes the scale the lcm of
    the vertex denominators."""
    g = gcd(scale, *(c for p in ring for c in p)) if scale > 1 else 1
    if g > 1:
        scale //= g
        ring = [(x // g, y // g) for x, y in ring]
    return RatPolygon(scale, tuple(ring))


def _halfplanes_of_hull(hull):
    if len(hull) <= 2:
        # a point is the segment case with d = (1, 0)
        a, b = hull[0], hull[-1]
        d = primitivize(vsub(b, a)) if a != b else (1, 0)
        n = rot90(d)
        return tuple(sorted([
            (n, dot(a, n)),
            (neg(n), dot(a, neg(n))),
            (d, dot(a, d)),
            (neg(d), dot(b, neg(d))),
        ]))
    out = []
    for i, a in enumerate(hull):
        b = hull[(i + 1) % len(hull)]
        n = primitivize(rot90(vsub(b, a)))
        out.append((n, dot(a, n)))
    return tuple(out)


# -- the polygon operations used downstream --------------------------------

def width(p: RatPolygon, v):
    """max <p, v> - min <p, v>; None for the empty polygon."""
    if p.is_empty:
        return None
    return p.support_max(v) - p.support_min(v)


def solve_pairing_one(v):
    """Some integer vector u with <u, v> = 1 (v primitive), by the
    extended Euclidean algorithm."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = v
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y = -x, -y
    return (x, y)


def _chord_pieces(p: RatPolygon, v) -> list:
    """The chords of a non-empty p orthogonal to a primitive v, as pieces
    between consecutive vertex levels, by one two-pointer walk up the two
    boundary chains from the left end.

    The int ring of p (``RatPolygon.ring``, vertices times L) is mapped
    by x -> (s, t) = (<x, v>, det(u, x)) with <u, v> = 1.  The map is
    unimodular and keeps orientation, so the ring stays counterclockwise;
    s is L times the level and t is L times the position along the chord
    in m-units, m = rot90(v).  From the lexicographic min of the ring the
    lower chain runs forwards and the upper chain backwards (past an edge
    at constant s), both with s increasing.  Each piece is (s0, s1,
    lower, upper, lower line, upper line): for s0 <= s <= s1 the chord at
    s is A(s) <= t <= B(s), where A lies on ring edge ``lower`` (from
    vertex ``lower`` to the next) and B on ring edge ``upper``, and the
    lines give A and B as (p*s + q) / r with r > 0, each built as its
    chain reaches the edge.  The pieces run s0 < s1 from the least level
    to the greatest; a polygon on one level is one piece with s0 = s1,
    constant lines and no edges.
    """
    (a, b), (c, d) = v, solve_pairing_one(v)
    st = [(x * a + y * b, c * y - d * x) for x, y in p.ring]
    n, i = len(st), st.index(min(st))
    (s0, t0), (top, t_top) = st[i], max(st)
    if s0 == top:
        return [(s0, s0, None, None, (0, t0, 1), (0, t_top, 1))]
    # both chains start on their vertex at level s0; each step builds the
    # line of the edge that a chain enters
    j = (i - 1) % n if st[i - 1][0] == s0 else i
    i1, j1, pieces = i, j, []
    while True:
        if st[i1][0] == s0:
            i, i1 = i1, (i1 + 1) % n
            (sa, ta), (sb, tb) = st[i], st[i1]
            lower = (tb - ta, ta * sb - tb * sa, sb - sa)
        if st[j1][0] == s0:
            j, j1 = j1, (j1 - 1) % n
            (sa, ta), (sb, tb) = st[j], st[j1]
            upper = (tb - ta, ta * sb - tb * sa, sb - sa)
        s1 = min(st[i1][0], st[j1][0])
        pieces.append((s0, s1, i, j1, lower, upper))
        if s1 == top:
            return pieces
        s0 = s1


def _integer_levels(piece, scale, last):
    """(first, n, pa, qa, ra, pb, qb, rb) for a piece of ``_chord_pieces``
    of a polygon over scale: its n >= 0 integer levels first, ...,
    first + n - 1 (a level at a piece's upper end belongs to the next
    piece, save on the last), and its lower and upper lines rescaled so
    that t = (p*s + q) / r at the level s itself, in m-units."""
    s0, s1, _, _, (pa, qa, ra), (pb, qb, rb) = piece
    first = -(-s0 // scale)
    return (first, (s1 if last else s1 - 1) // scale - first + 1,
            pa * scale, qa, ra * scale, pb * scale, qb, rb * scale)


class LatticePoints:
    """The integer points of a convex polygon, held as the polygon itself.

    ``len`` is the exact number of points and ``level_count`` the number
    of their levels <p, v>, both read off the polygon by floor sums
    (``_chord_sum``) in O(n log size) steps whatever the area.  Iterating
    yields the points lexicographically sorted, walking the non-empty
    integer columns (``_column_walk``) one at a time, so a caller that
    stops early builds only what it read.
    """

    __slots__ = ("polygon",)

    def __init__(self, polygon):
        self.polygon = polygon

    def __len__(self):
        # Python's len must fit an index: past 2**63 - 1 points it raises
        # OverflowError, and only _chord_sum gives the count
        return _chord_sum(self.polygon, (1, 0), capped=False)

    def __iter__(self):
        for x, lo, hi in _column_walk(self.polygon):
            yield from zip(repeat(x), range(lo, hi + 1))


def lattice_points(p: RatPolygon) -> LatticePoints:
    """The integer points of a polygon; nothing is walked or counted until
    a caller asks (see ``LatticePoints``)."""
    return LatticePoints(p)


def _column_walk(p: RatPolygon):
    """The non-empty integer columns (x, y_lo, y_hi) of p, x increasing,
    yielded as they are reached.  With v = (1, 0) the chord coordinates
    (s, t) are (x, y) itself, so the columns are the integer levels of
    ``_integer_levels`` and a column's points are y = ceil(A(x)) ..
    floor(B(x)), by int floor division; no Fraction and no point is
    built."""
    if p.is_empty:
        return
    pieces = _chord_pieces(p, (1, 0))
    for piece in pieces:
        first, n, pa, qa, ra, pb, qb, rb = _integer_levels(piece, p.scale, piece is pieces[-1])
        for x in range(first, first + n):
            lo, hi = -(-(pa * x + qa) // ra), (pb * x + qb) // rb
            if lo <= hi:
                yield x, lo, hi


def level_count(points: LatticePoints, v) -> int:
    """The number of distinct levels <p, v> over ``points``, the integer
    points of a convex polygon as ``lattice_points`` returns them, for a
    primitive v, in O(n log size) steps; no point or column is read."""
    return _chord_sum(points.polygon, v, capped=True)


def floor_sum(n, m, a, b):
    """sum of floor((a*i + b) / m) over 0 <= i < n, for n >= 0, m > 0 and
    any ints a and b, in O(log m) steps by the Euclid-like reduction
    (Graham, Knuth and Patashnik, Concrete Mathematics, section 3.5; the
    ``floor_sum`` of the AtCoder Library).  With 0 <= a, b < m the sum
    counts the lattice points under a line, and counting them by the
    other axis gives the same sum with m and a swapped."""
    total = 0
    while True:
        q, a = divmod(a, m)
        q2, b = divmod(b, m)
        total += q * (n * (n - 1) // 2) + q2 * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _chord_sum(p: RatPolygon, v, capped: bool) -> int:
    """The sum over the integer levels s of p of n(s), the number of
    lattice points on the chord of p at level <x, v> = s, or of min(n(s), 1)
    when capped, for a primitive v.  Uncapped it is the number of lattice
    points of p, capped the number of levels they take.

    The chord at level s is t in [A(s), B(s)] (``_chord_pieces``), and
    n(s) = floor(B) - ceil(A) + 1 >= 0 since B >= A.  On each piece A and
    B are affine, so the sum of n(s) over its integer levels
    (``_integer_levels``) is n plus two floor sums (floor(B) and
    floor(-A)).  Capped, every level with B - A >= 1 holds a point; B - A
    is affine on the piece, so those levels are a prefix or a suffix found
    by one division, and on the other levels n(s) is 0 or 1 and is summed
    as before.  Each piece costs O(log size) int steps.
    """
    if p.is_empty:
        return 0
    total, scale, pieces = 0, p.scale, _chord_pieces(p, v)
    for piece in pieces:
        first, n, pa, qa, ra, pb, qb, rb = _integer_levels(piece, scale, piece is pieces[-1])
        if capped:
            # B - A >= 1, so the level holds a point, at first + i iff
            # e1 * i + e0 >= 0; the other levels, a prefix or a suffix of
            # the piece, are i0 <= i < i1
            e1 = pb * ra - pa * rb
            e0 = e1 * first + qb * ra - qa * rb - ra * rb
            if e1 > 0:
                i0, i1 = 0, min(n, max(0, -(e0 // e1)))
            elif e1 < 0:
                i0, i1 = min(n, max(0, e0 // -e1 + 1)), n
            else:
                i0, i1 = 0, n if e0 < 0 else 0
            total += n - i1 + i0
            first, n = first + i0, i1 - i0
            if n == 0:
                continue
        total += (floor_sum(n, rb, pb, pb * first + qb)
                  + floor_sum(n, ra, -pa, -pa * first - qa) + n)
    return total


class ChordWalk:
    """The chords of p orthogonal to a primitive v at its vertex levels,
    read off the pieces of ``_chord_pieces`` (the rotating-calipers
    sweep); no Fraction is built before a result.

    ``polygon`` and ``v`` are the walked polygon and direction;
    ``length`` is the longest chord, in m-units (m = rot90(v)), built on
    first read, and None for the empty polygon; ``int_lengths()`` lists
    the chord length at every vertex level on the ints, and ``ends()``
    the maximal cross-section.  The chord length is
    concave and piecewise linear in the level with kinks only at vertex
    levels, so the maximum is attained at one of those.
    """

    def __init__(self, p: RatPolygon, v):
        self.polygon, self.v, self._scale = p, v, p.scale
        self._chords = []
        if p.is_empty:
            return
        self._pieces = pieces = _chord_pieces(p, v)
        # vertex level k starts piece k; the last one ends the last piece
        levels = [(s, lo, up) for s, _, _, _, lo, up in pieces]
        s0, s1, _, _, lo, up = pieces[-1]
        if s1 > s0:
            levels.append((s1, lo, up))
        chords, best, bden = self._chords, -1, 1
        for k, (s, (pa, qa, ra), (pb, qb, rb)) in enumerate(levels):
            # the chord length B - A >= 0 at level s, as n / den in L-units
            n, den = (pb * s + qb) * ra - (pa * s + qa) * rb, ra * rb
            chords.append((s, n, den))
            if n * bden > best * den:
                best, bden, first, last = n, den, k, k
            elif n * bden == best * den:
                last = k
        self._longest, self._best = (best, bden), (first, last)

    @cached_property
    def length(self):
        if not self._chords:
            return None
        best, bden = self._longest
        return Fraction(best, bden * self._scale)

    def int_lengths(self) -> tuple:
        """(den, lengths): the length at every vertex level, levels
        increasing, in m-units, as ints over one common denominator den;
        no Fraction is built."""
        lowest = []
        for _, n, d in self._chords:
            d *= self._scale
            g = gcd(n, d)
            lowest.append((n // g, d // g))
        den = lcm(*(d for _, d in lowest))
        return den, [n * (den // d) for n, d in lowest]

    def ends(self):
        """The maximal cross-section at the midpoint c of the maximizing
        levels: (c, lower end, upper end), each end as (point, below,
        above), where below and above index the ring edges (and so the
        halfplanes of a two-dimensional polygon) continuing the end to
        lower and higher levels: one edge inside an edge interior, the two
        incident edges at a vertex, None past an extreme level.

        Between two maximizing levels both chains are straight (the chord
        length is concave and constant there), so the lines of the piece
        at the first maximizing level give both ends at the midpoint, which
        lie inside the edges that leave that level upwards.
        """
        (a, b), (c, e) = self.v, solve_pairing_one(self.v)
        pieces, (k, k_top) = self._pieces, self._best
        last = len(pieces) - 1
        lvl, top = self._chords[k][0], self._chords[k_top][0]
        out = [Fraction(lvl + top, 2 * self._scale)]
        for side in (2, 3):  # the lower, then the upper chain
            below = pieces[k - 1][side] if k else None
            above = pieces[k][side] if k <= last else None
            if top != lvl:
                below = above
            p1, q1, d = pieces[min(k, last)][side + 2]
            # at level s / den the chord position is t / den, so the point
            # is (s*u + t*rot90(v)) / den
            s, t, den = (lvl + top) * d, p1 * (lvl + top) + 2 * q1, 2 * d * self._scale
            out.append(((Fraction(c * s - b * t, den), Fraction(e * s + a * t, den)), below, above))
        return tuple(out)
