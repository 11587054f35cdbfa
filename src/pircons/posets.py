"""Finite graded posets.

Elements are indexed 0..n-1 and carry stable string labels supplied by the
builder (Coxeter quotients use lexicographically least reduced words).  Cover
lists point upward; ranks are computed from the covers and validated, so a
successfully constructed poset is graded by construction.

Reachability is precomputed as one Python-int bitmask per element (the lower
and upper order ideals), which makes comparability queries O(1) and interval
extraction a couple of bit operations.  This matters because matching
verification and orbit analysis are pair-heavy.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class PosetError(ValueError):
    """Raised for inputs that do not describe a graded poset."""


class GradedPoset:
    __slots__ = ("labels", "up_covers", "down_covers", "rank", "bottom",
                 "top", "_down", "_up", "_label_index")

    def __init__(self, labels: Sequence[str],
                 cover_pairs: Iterable[tuple[int, int]]):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise PosetError("element labels must be unique")
        covers = set()
        for lo, hi in cover_pairs:
            lo, hi = int(lo), int(hi)
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo},{hi}) out of range")
            if lo == hi:
                raise PosetError(f"self-cover at {lo}")
            covers.add((lo, hi))
        up = [[] for _ in range(n)]
        down = [[] for _ in range(n)]
        for lo, hi in sorted(covers):
            up[lo].append(hi)
            down[hi].append(lo)

        self.labels = labels
        self.up_covers = tuple(tuple(v) for v in up)
        self.down_covers = tuple(tuple(v) for v in down)
        self._label_index = {lab: i for i, lab in enumerate(labels)}

        if n == 0:
            self.rank = ()
            self.bottom = None
            self.top = None
            self._down = ()
            self._up = ()
            return

        bottoms = [i for i in range(n) if not down[i]]
        if len(bottoms) != 1:
            raise PosetError(f"expected a unique bottom, found {len(bottoms)}")
        self.bottom = bottoms[0]

        # Rank assignment doubles as the gradedness / acyclicity check:
        # every cover must raise the already-assigned rank by exactly 1.
        rank = [None] * n
        rank[self.bottom] = 0
        queue = [self.bottom]
        seen = 1
        while queue:
            nxt = []
            for x in queue:
                for y in up[x]:
                    r = rank[x] + 1
                    if rank[y] is None:
                        if all(rank[z] is not None for z in down[y]):
                            bad = {rank[z] for z in down[y]}
                            if bad != {rank[x]}:
                                raise PosetError(
                                    f"covers into {labels[y]!r} skip a rank")
                            rank[y] = r
                            nxt.append(y)
                            seen += 1
                    elif rank[y] != r:
                        raise PosetError(
                            f"covers into {labels[y]!r} skip a rank")
            queue = nxt
        if seen != n:
            # Either a cycle or an element unreachable from the bottom.
            raise PosetError("cover relation is cyclic or disconnected")
        self.rank = tuple(rank)

        order = sorted(range(n), key=lambda i: rank[i])
        down_sets = [0] * n
        for y in order:
            m = 1 << y
            for x in down[y]:
                m |= down_sets[x]
            down_sets[y] = m
        up_sets = [0] * n
        for y in reversed(order):
            m = 1 << y
            for x in up[y]:
                m |= up_sets[x]
            up_sets[y] = m
        self._down = tuple(down_sets)
        self._up = tuple(up_sets)

        tops = [i for i in range(n) if not up[i]]
        self.top = tops[0] if len(tops) == 1 else None

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._label_index[label]

    def leq(self, x: int, y: int) -> bool:
        return bool(self._down[y] >> x & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and bool(self._down[y] >> x & 1)

    def covers(self, x: int, y: int) -> bool:
        """True when y covers x."""
        return y in self.up_covers[x]

    def rank_gap(self, x: int, y: int) -> int:
        """rank(y) - rank(x); the rank of the interval [x, y] when x <= y."""
        return self.rank[y] - self.rank[x]

    def down_set(self, y: int) -> int:
        """Bitmask of {z : z <= y}."""
        return self._down[y]

    def up_set(self, x: int) -> int:
        return self._up[x]

    def interval_mask(self, x: int, y: int) -> int:
        return self._down[y] & self._up[x]

    def elements_of(self, mask: int) -> list[int]:
        """The elements of a bitmask in ascending order, O(popcount)."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def ideal_elements(self, w: int) -> list[int]:
        return self.elements_of(self._down[w])

    def max_rank(self) -> int:
        return max(self.rank) if self.rank else 0

    def by_rank(self) -> list[list[int]]:
        out = [[] for _ in range(self.max_rank() + 1)]
        for i, r in enumerate(self.rank):
            out[r].append(i)
        return out

    # -- subposets -----------------------------------------------------------

    def subposet(self, elements: Iterable[int]) -> "GradedPoset":
        """Induced poset on a down-closed-or-interval subset.

        Cover relations of such subsets coincide with the ambient covers, so
        they are restricted rather than recomputed.
        """
        elems = sorted(set(elements))
        pos = {e: i for i, e in enumerate(elems)}
        labels = [self.labels[e] for e in elems]
        covers = [(pos[x], pos[y]) for x in elems for y in self.up_covers[x]
                  if y in pos]
        return GradedPoset(labels, covers)

    def order_ideal(self, w: int) -> "GradedPoset":
        return self.subposet(self.ideal_elements(w))

    def interval(self, x: int, y: int) -> "GradedPoset":
        """The induced poset on [x, y]; empty when x is not below y."""
        if not self.leq(x, y):
            return GradedPoset((), ())
        return self.subposet(self.elements_of(self.interval_mask(x, y)))

    # -- shape tests -------------------------------------------------------

    def is_dihedral_interval(self, x: int, y: int) -> bool:
        """Rank profile 1,2,2,...,2,1 with full covers between mid ranks.

        Intervals of rank <= 1 (a point or a two-chain) count as dihedral.
        """
        if not self.leq(x, y):
            return False
        elems = self.elements_of(self.interval_mask(x, y))
        gap = self.rank_gap(x, y)
        if gap <= 1:
            return len(elems) == gap + 1
        by_rank: dict[int, list[int]] = {}
        for e in elems:
            by_rank.setdefault(self.rank_gap(x, e), []).append(e)
        profile = [len(by_rank.get(r, [])) for r in range(gap + 1)]
        if profile != [1] + [2] * (gap - 1) + [1]:
            return False
        for r in range(gap):
            for a in by_rank[r]:
                ups = [b for b in by_rank[r + 1] if self.covers(a, b)]
                if len(ups) != len(by_rank[r + 1]):
                    return False
        return True

    # -- rendering and serialization -------------------------------------

    def to_dot(self, matching=None) -> str:
        """DOT digraph, edges upward by rank.

        When a matching is supplied its matched pairs share a bold edge style
        and its fixed points are drawn as doubled circles.
        """
        fixed = set()
        matched = set()
        if matching is not None:
            for x in matching.domain:
                y = matching(x)
                if y == x:
                    fixed.add(x)
                else:
                    matched.add((min(x, y), max(x, y)))
        lines = ["digraph poset {", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels):
            shape = " peripheries=2" if i in fixed else ""
            lines.append(f'  n{i} [label="{lab}"{shape}];')
        for x in range(self.n):
            for y in self.up_covers[x]:
                style = ' [style=bold color=red]' if (x, y) in matched else ""
                lines.append(f"  n{x} -> n{y}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        covers = [[x, y] for x in range(self.n) for y in self.up_covers[x]]
        return {"elements": list(self.labels), "covers": covers}

    @classmethod
    def from_json(cls, data: dict) -> "GradedPoset":
        return cls(data["elements"], [tuple(c) for c in data["covers"]])

    def __repr__(self) -> str:
        return f"GradedPoset({self.n} elements, rank {self.max_rank()})"


def from_comparability(labels: Sequence[str],
                       below_masks: Sequence[int]) -> GradedPoset:
    """Build the induced poset from a full comparability relation.

    ``below_masks[y]`` is the bitmask of all x with x <= y (including y).
    Covers are recovered by transitive reduction, so this is the right
    constructor for subsets of a larger order, e.g. parabolic quotients or
    twisted identities, whose covers may not be covers of the ambient order.
    """
    n = len(labels)
    strict_above = [0] * n
    for y in range(n):
        m = below_masks[y] & ~(1 << y)
        x = 0
        mm = m
        while mm:
            if mm & 1:
                strict_above[x] |= 1 << y
            mm >>= 1
            x += 1
    covers = []
    for y in range(n):
        cand = below_masks[y] & ~(1 << y)
        m = cand
        x = 0
        while m:
            if m & 1 and not (strict_above[x] & cand & ~(1 << y)):
                covers.append((x, y))
            m >>= 1
            x += 1
    return GradedPoset(labels, covers)
