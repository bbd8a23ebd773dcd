"""Planar tile diagrams over the atoms D, P, F, and their marked graphs.

A tile is a planar string diagram with n input and m output boundary
intervals, generated by three atoms: D makes an interval out of nothing
(0 to 1), P merges two intervals (2 to 1), F passes one through (1 to 1).
Gluing (``;``, left factor first) and side-by-side union (``+``) build all
others.  Union is deliberately not symmetric: there is no crossing.

Two expressions denote the same tile exactly when they are related by the
interchange law, i.e. when they draw the same anchored diagram.  The
normal form materializes that diagram: every atom has exactly one output,
consumed exactly once, so the diagram is a forest of atom trees hanging
off the global outputs, and numbering the atoms by a depth-first sweep
from the outputs is canonical.  A wire of a diagram is a plain int: ``r``
(nonnegative) is the single output of atom ``r``, and ``~i`` (negative) is
global input ``i``.

Atoms carry marked points (D none, P one, F two) joined by edges: F's two
points are joined internally, and a glued wire joins the producer-side
point to the consumer-side point.  Points are numbered by the same sweep
in post-order (a producer's points come before its consumer's), which
keeps every tree's chords nested rather than crossing; the braid-group
image of the resulting Artin generators depends on that.  Wires out of D
carry no point, so the consumer's would-be edge end dies with them, and
edge ends facing an unglued boundary interval are kept as half-edges.
The sweep depends only on the diagram, not on how its atoms are
numbered, so the graph is built in that one post-order pass straight from
an expression's diagram, with no normal form in between.

The term classes check what user code hands them.  What the package
derives from a diagram it has built (terms of known arity, the normal
form, the marked graph and its presentation) holds every invariant by
construction, so it is built unchecked, through the module-private
builders next to each class.

Every walk over a term pops a part that waits, goes down its left spine
(first parts of gluings, left parts of unions) pushing only right parts,
and handles the leaf at its foot, so no depth needs recursion; the output
sweep of a diagram pops each wire once and skips the global inputs.  One
such walk lists a term's prefix-order nodes, which determine the term, for
``==``, ``hash`` and ``marked_point_count``; the printer and the diagram
carry parentheses and wire slices, so they walk for themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from typing import Callable, Iterator, Sequence, TypeVar

from .artin import Presentation, presentation_from_graph
from .graphs import HalfEdge, MarkedGraph, _marked_graph
from .linalg import SPACE, _trusted, long_numeral

_ARITY = {"D": (0, 1), "P": (2, 1), "F": (1, 1)}
_POINTS = {"D": 0, "P": 1, "F": 2}


class TileParseError(ValueError):
    """Malformed tile expression text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class TileExpr:
    """Base class of tile expression terms; ``dom`` and ``cod`` are fixed
    at construction.  Equality is structural: ``==`` compares two terms'
    prefix-order nodes up to the first difference, and ``hash`` hashes
    them, so the two agree.  They and ``repr`` walk without recursion, so
    any depth works, and dispatch on the exact type, as every walk does: a
    node of none of the four term classes, a subclass included, raises
    TypeError as no tile expression."""

    dom: int = field(init=False, compare=False, repr=False)
    cod: int = field(init=False, compare=False, repr=False)

    def _arity(self, dom: int, cod: int) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileExpr):
            return NotImplemented
        return all(map(tuple.__eq__, _nodes(self), _nodes(other)))  # prefix-free: one ends when both do

    def __hash__(self) -> int:
        return hash(tuple(_nodes(self)))

    def __repr__(self) -> str:
        return f"parse_tile_expression({format_tile_expression(self)!r})"

    def __str__(self) -> str:
        return format_tile_expression(self)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class AtomExpr(TileExpr):
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in _ARITY:
            raise ValueError(f"unknown atom {self.tag!r}; atoms are D, P, F")
        self._arity(*_ARITY[self.tag])


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class IdentityExpr(TileExpr):
    width: int

    def __post_init__(self) -> None:
        if type(self.width) is not int:  # a bool is an int to isinstance, and 1.0 compares as 1
            raise ValueError(f"identity width {self.width!r} is not an int")
        if self.width < 0:
            raise ValueError("identity width must be nonnegative")
        self._arity(self.width, self.width)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ComposeExpr(TileExpr):
    """Gluing ``first ; second``: first's outputs feed second's inputs."""

    first: TileExpr
    second: TileExpr

    def __post_init__(self) -> None:
        if self.first.cod != self.second.dom:
            raise ValueError(_glue_message(self.first.cod, self.second.dom))
        self._arity(self.first.dom, self.second.cod)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class UnionExpr(TileExpr):
    left: TileExpr
    right: TileExpr

    def __post_init__(self) -> None:
        self._arity(self.left.dom + self.right.dom, self.left.cod + self.right.cod)


D = AtomExpr("D")
P = AtomExpr("P")
F = AtomExpr("F")
_ATOMS = {"D": D, "P": P, "F": F}


def _glue_message(cod: int, dom: int) -> str:
    return f"cannot glue: left tile produces {cod} intervals, right tile expects {dom}"


# Trusted builders, for terms whose arities are already known to fit: they
# fill the slots through their descriptors, so no __init__, __post_init__ or
# _arity frame runs.  User code goes through the validating classes.
_new = object.__new__
_set_dom = TileExpr.dom.__set__
_set_cod = TileExpr.cod.__set__
_set_first = ComposeExpr.first.__set__
_set_second = ComposeExpr.second.__set__
_set_left = UnionExpr.left.__set__
_set_right = UnionExpr.right.__set__
_set_width = IdentityExpr.width.__set__


def _compose(first: TileExpr, second: TileExpr) -> TileExpr:
    """``ComposeExpr(first, second)`` for ``first.cod == second.dom``."""
    e = _new(ComposeExpr)
    _set_first(e, first)
    _set_second(e, second)
    _set_dom(e, first.dom)
    _set_cod(e, second.cod)
    return e


def _identity(width: int) -> TileExpr:
    """``IdentityExpr(width)`` for ``width >= 0``."""
    e = _new(IdentityExpr)
    _set_width(e, width)
    _set_dom(e, width)
    _set_cod(e, width)
    return e


def _union(left: TileExpr, right: TileExpr) -> TileExpr:
    """``UnionExpr(left, right)``."""
    e = _new(UnionExpr)
    _set_left(e, left)
    _set_right(e, right)
    _set_dom(e, left.dom + right.dom)
    _set_cod(e, left.cod + right.cod)
    return e


def compose(*parts: TileExpr) -> TileExpr:
    """Glue left to right; needs at least one part."""
    if not parts:
        raise ValueError("compose needs at least one tile")
    out = parts[0]
    for p in parts[1:]:
        out = ComposeExpr(out, p)
    return out


def disjoint_union(*parts: TileExpr) -> TileExpr:
    """Place side by side, left to right; empty union is the empty tile."""
    if not parts:
        return IdentityExpr(0)
    out = parts[0]
    for p in parts[1:]:
        out = UnionExpr(out, p)
    return out


def _nodes(expr: TileExpr) -> Iterator[tuple[type, str | int | None]]:
    """The term's nodes in prefix order, each as ``(type, label)``: an
    atom's tag, an identity's width, None for a gluing or a union.  Every
    node has a fixed number of parts, so the sequence determines the term."""
    stack = [expr]  # the right parts that wait
    while stack:
        e = stack.pop()
        while (kind := type(e)) is ComposeExpr or kind is UnionExpr:
            yield kind, None
            if kind is ComposeExpr:
                stack.append(e.second)
                e = e.first
            else:
                stack.append(e.right)
                e = e.left
        if kind is AtomExpr:
            yield kind, e.tag
        elif kind is IdentityExpr:
            yield kind, e.width
        else:
            raise TypeError(f"not a tile expression: {kind.__name__}")


# -- text format --------------------------------------------------------

_IDENTITY_TERM = re.compile(r"1_([0-9]+)")


def parse_tile_expression(text: str) -> TileExpr:
    """Parse the tile grammar: atoms D, P, F; identities 1_<n>; ``+`` for
    union binding tighter than ``;`` for gluing; both left-associative;
    parentheses allowed.  An expression is unions glued left to right, and
    a union is terms side by side.  Each open parenthesis, and the text as
    a whole, has a frame: the gluing so far, the position of its last
    ``;``, and the union after that ``;``.  Frames live on a list, so
    nesting depth is unbounded.

    One pass over the characters reads the tokens and grows the frames; an
    identity term is built once for each spelling and then shared, as the
    atoms are.  A frame's pending gluing is checked as soon as its union
    ends, before any later grammar error, as recursive descent would.  An
    unexpected character anywhere comes first of all, as if the whole text
    were read into tokens before parsing: before raising a grammar or
    gluing error, the rest of the text is scanned for one."""
    end = len(text)
    chars = enumerate(text)
    atoms = _ATOMS
    identities: dict[str, TileExpr] = {}  # each identity term read, by its digits
    outer: list[tuple[TileExpr | None, int, TileExpr | None]] = []  # frames of the enclosing groups
    glued: TileExpr | None = None  # the innermost frame: its gluing so far,
    semi = 0  # the position of its last ";",
    union: TileExpr | None = None  # and the union after it
    want_term = True
    for at, ch in chain(chars, ((end, "$"),)):  # "$" at position end: the end of the text
        if ch in SPACE:
            continue
        if want_term:
            term = atoms.get(ch)
            if term is None:
                if ch == "(":
                    outer.append((glued, semi, union))
                    glued = union = None
                    continue
                m = _IDENTITY_TERM.match(text, at) if ch == "1" else None
                if m is None:
                    found = "" if at == end else f", found {ch!r}"
                    raise _first_error(text, at, f"expected a tile term{found}", at)
                digits = m.group(1)
                term = identities.get(digits)
                if term is None:
                    try:
                        term = identities[digits] = _identity(int(digits))
                    except ValueError:  # more digits than int() converts
                        raise TileParseError(long_numeral(digits), at) from None
                next(islice(chars, len(digits), None))  # skip the rest of the term
            union = term if union is None else _union(union, term)
            want_term = False
        elif ch == "+":
            want_term = True
        else:  # anything else ends the innermost union, so its gluing is checked first
            if glued is not None:
                if glued.cod != union.dom:
                    raise _first_error(text, at, _glue_message(glued.cod, union.dom), semi)
                union = _compose(glued, union)
            if ch == ";":
                glued, semi, union, want_term = union, at, None, True
            elif ch == ")" and outer:  # the closed group is a term of the enclosing one
                term = union
                glued, semi, union = outer.pop()
                union = term if union is None else _union(union, term)
            elif at == end and not outer:
                return union
            else:
                raise _first_error(text, at, "missing ')'" if outer else f"unexpected {ch!r}", at)


def _first_error(text: str, start: int, message: str, position: int) -> TileParseError:
    """The error for a grammar fault met at ``start``: the first unexpected
    character from ``start`` on, since the parser has read every character
    before it, else the fault itself."""
    i, end = start, len(text)
    while i < end:
        ch = text[i]
        if ch in SPACE or ch in "DPF;+()":
            i += 1
            continue
        m = _IDENTITY_TERM.match(text, i)
        if m is None:
            return TileParseError(f"unexpected character {ch!r}", i)
        try:
            int(m.group(1))
        except ValueError:
            return TileParseError(long_numeral(m.group(1)), i)
        i = m.end()
    return TileParseError(message, position)


def format_tile_expression(expr: TileExpr) -> str:
    """Inverse of the parser up to whitespace: parse(format(e)) == e.
    Parentheses go only where precedence and left association need them:
    around a gluing inside a union, and around a right part that binds no
    tighter than its parent."""
    parts: list[str] = []
    stack = [("", expr, 0)]  # the right parts still to print: (text before, term, ")" count after)
    while stack:
        lead, e, close = stack.pop()
        parts.append(lead)
        while (kind := type(e)) is ComposeExpr or kind is UnionExpr:
            if kind is ComposeExpr:
                paren = type(e.second) is ComposeExpr
                stack.append((" ; (" if paren else " ; ", e.second, close + paren))
                e, close = e.first, 0
            else:
                lead = " + "
                if type(e.left) is ComposeExpr:
                    parts.append("(")
                    lead = ") + "
                paren = type(e.right) in (UnionExpr, ComposeExpr)
                stack.append((lead + "(" if paren else lead, e.right, close + paren))
                e, close = e.left, 0
        if kind is AtomExpr:
            parts.append(e.tag)
        elif kind is IdentityExpr:
            parts.append(f"1_{e.width}")
        else:
            raise TypeError(f"not a tile expression: {kind.__name__}")
        if close:
            parts.append(")" * close)
    return "".join(parts)


# -- diagrams and normal form -------------------------------------------

def _diagram(expr: TileExpr) -> tuple[list[str], list[list[int]], list[int]]:
    """Concrete port graph of an expression as ``(tags, inputs, outputs)``,
    atoms numbered left to right (node ids index ``tags``).  A wire is an
    int: ``r >= 0`` is the output of atom ``r``, ``~i`` is global input
    ``i``.  Each part reads its input wires from ``src[at:at + dom]`` and
    appends its output wires to ``out``; a gluing's first part writes a
    fresh list that its second part reads."""
    if not isinstance(expr, TileExpr):
        raise TypeError(f"not a tile expression: {expr!r}")
    tags: list[str] = []
    inputs: list[list[int]] = []
    outputs: list[int] = []
    stack = [(expr, list(range(-1, ~expr.dom, -1)), 0, outputs)]  # the right parts still to draw
    while stack:
        e, src, at, out = stack.pop()
        while (kind := type(e)) is ComposeExpr or kind is UnionExpr:
            if kind is ComposeExpr:
                mid: list[int] = []
                stack.append((e.second, mid, 0, out))
                e, out = e.first, mid
            else:
                stack.append((e.right, src, at + e.left.dom, out))
                e = e.left
        if kind is AtomExpr:
            inputs.append(src[at:at + e.dom])
            out.append(len(tags))
            tags.append(e.tag)
        elif kind is IdentityExpr:
            out += src[at:at + e.width]
        else:
            raise TypeError(f"not a tile expression: {kind.__name__}")
    return tags, inputs, outputs


def _sweep(inputs: Sequence[Sequence[int]], outputs: Sequence[int], step: int) -> list[int]:
    """Node ids in depth-first pre-order from the outputs, ports left to
    right if ``step`` is 1 and right to left if it is -1.  Reversed, the
    right-to-left pre-order is the left-to-right post-order.  Every node's
    output is consumed exactly once, so this visits each node exactly once."""
    order: list[int] = []
    stack = list(outputs[::-step])  # the next port is popped first
    while stack:
        r = stack.pop()
        if r >= 0:  # a global input ends the branch
            order.append(r)
            stack += inputs[r][::-step]
    return order


def _wire_json(w: int) -> list:
    return ["in", ~w] if w < 0 else ["node", w]


@dataclass(frozen=True)
class TileNormalForm:
    """Canonical anchored diagram: atoms numbered by the output sweep.  A
    wire is an int, as in the diagram: ``r >= 0`` is the output of atom
    ``r``, ``~i`` is global input ``i``; only the JSON spells them
    ``["node", r]`` and ``["in", i]``."""

    dom: int
    cod: int
    tags: tuple[str, ...]
    inputs: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:  # exactly what normal_form builds for the diagram these fields draw
        try:
            drawn = normal_form(to_expression(self))
        except (IndexError, TypeError):  # a wire names no atom, or a field holds no tuple of ints
            drawn = None
        if drawn != self or any(type(w) is not int for w in chain((self.dom, self.cod), self.outputs, *self.inputs)):
            raise ValueError("not a normal form: the output sweep of the diagram it draws gives other fields")

    @property
    def atom_count(self) -> int:
        return len(self.tags)

    def to_json_obj(self) -> dict:
        return {
            "dom": self.dom,
            "cod": self.cod,
            "nodes": [
                {"tag": t, "inputs": [_wire_json(w) for w in wires]}
                for t, wires in zip(self.tags, self.inputs)
            ],
            "outputs": [_wire_json(w) for w in self.outputs],
        }

    def __str__(self) -> str:
        return format_tile_expression(to_expression(self))


def _normal_form(dom: int, cod: int, tags: tuple[str, ...], inputs: tuple[tuple[int, ...], ...],
                 outputs: tuple[int, ...]) -> TileNormalForm:
    """``TileNormalForm(dom, cod, tags, inputs, outputs)``, unchecked, for the
    fields the output sweep has just built."""
    return _trusted(TileNormalForm, dom=dom, cod=cod, tags=tags, inputs=inputs, outputs=outputs)


def normal_form(expr: TileExpr) -> TileNormalForm:
    tags, inputs, outputs = _diagram(expr)
    order = _sweep(inputs, outputs, 1)
    # rank[j] is atom j's sweep number, and the tail maps each input wire ~i
    # (a negative index from the end) to itself, so one lookup renames any wire
    rank = [0] * len(order) + list(range(-expr.dom, 0))
    for r, j in enumerate(order):
        rank[j] = r
    wire = rank.__getitem__
    return _normal_form(
        expr.dom,
        expr.cod,
        tuple([tags[j] for j in order]),
        tuple([tuple(map(wire, inputs[j])) for j in order]),
        tuple(map(wire, outputs)),
    )


def to_expression(nf: TileNormalForm) -> TileExpr:
    """Canonical expression drawing exactly this diagram:
    normal_form(to_expression(nf)) == nf.  Atoms are numbered in pre-order,
    so every input of atom r has a larger id and the trees are built from
    the last atom back."""
    trees: list[TileExpr] = [AtomExpr(tag) for tag in nf.tags]

    def union_of(wires: Sequence[int]) -> TileExpr:  # produces len(wires) intervals
        terms: list[TileExpr] = []
        run = 0
        for w in wires:
            if w < 0:
                run += 1
                continue
            if run:
                terms.append(_identity(run))
                run = 0
            terms.append(trees[w])
        if run:
            terms.append(_identity(run))
        return reduce(_union, terms) if terms else _identity(0)

    for r in reversed(range(len(trees))):
        wires = nf.inputs[r]
        children = [w for w in wires if w >= 0]
        if any(i <= r for i in children):
            raise ValueError(f"not a normal form: atom {r} reads atom {min(children)}")
        if children:
            atom = trees[r]
            if len(wires) != atom.dom:
                raise ValueError(_glue_message(len(wires), atom.dom))
            trees[r] = _compose(union_of(wires), atom)
    return union_of(nf.outputs)


# -- marked points and graphs -------------------------------------------

def _graph_of(tags: Sequence[str], inputs: Sequence[Sequence[int]], outputs: Sequence[int]) -> MarkedGraph:
    """One post-order pass of the output sweep labels each node's points
    and emits its edges and half-edges.  A producer is finished before its
    consumer, so its points are labelled when the consumer's wire needs
    them, whatever the node numbering.  F and P anchor incoming edge ends
    on their first point and the outgoing end on their last; D has no
    point, so a wire out of D carries no edge and the consumer's end dies
    with it."""
    last = [0] * len(tags)  # each node's last point label; D keeps 0
    count = 0
    edges: list[tuple[int, int]] = []
    halves: list[HalfEdge] = []
    for r in reversed(_sweep(inputs, outputs, -1)):  # post-order
        tag, first = tags[r], count + 1
        if tag == "D":  # no inputs, no points
            continue
        count = last[r] = count + _POINTS[tag]
        if tag == "F":
            edges.append((first, count))
        for w in inputs[r]:
            if w < 0:  # global input ~w, boundary interval -w
                halves.append(HalfEdge(first, "in", -w))
            elif last[w]:
                edges.append((last[w], first))
    for o, w in enumerate(outputs, start=1):
        if w >= 0 and last[w]:
            halves.append(HalfEdge(last[w], "out", o))
    return _marked_graph(count, edges, halves)


def marked_graph_of(tile: TileExpr | TileNormalForm) -> MarkedGraph:
    """The tile's marked graph: points in the package's planar order, edges
    from F's internal join and from glued wires, half-edges at the
    boundary.  Always a forest with maximum degree 3.  An expression's
    graph is read off its diagram as drawn, with no normal form built."""
    if isinstance(tile, TileNormalForm):
        return _graph_of(tile.tags, tile.inputs, tile.outputs)
    return _graph_of(*_diagram(tile))


def marked_point_count(tile: TileExpr) -> int:
    """Number of marked points; the braid group on this many strands is the
    tile's endomorphism group after completion (half twists around edges
    generate only a subgroup in general).

    Each atom of the expression is one atom of its diagram, so the count
    is read off the expression's nodes, with no diagram built: the cost
    follows its terms, never an identity's width."""
    return sum(_POINTS[label] for kind, label in _nodes(tile) if kind is AtomExpr)


def endomorphism_presentation(tile: TileExpr | TileNormalForm) -> Presentation:
    """Artin presentation on the full edges of the tile's marked graph."""
    return presentation_from_graph(marked_graph_of(tile))


# -- enumeration ---------------------------------------------------------

def enumerate_trees(max_atoms: int) -> tuple[tuple[TileExpr, ...], ...]:
    """All single-output tiles with no through-wires, grouped by atom count:
    entry i-1 lists the trees with exactly i atoms (3, 9, 36, 162, 783, ...).
    A tree is an atom whose input slots each take a bare input wire or a
    smaller tree."""
    if max_atoms < 0:
        raise ValueError("atom budget must be nonnegative")
    by_size: list[list[TileExpr]] = [[] for _ in range(max_atoms)]
    wire = _identity(1)
    for n in range(1, max_atoms + 1):
        out = by_size[n - 1]
        if n == 1:
            out.extend((D, F, P))
        else:  # every tree has one output, so each gluing below fits
            for sub in by_size[n - 2]:
                out.append(_compose(sub, F))
            for sub in by_size[n - 2]:
                out.append(_compose(_union(wire, sub), P))
                out.append(_compose(_union(sub, wire), P))
            for a in range(1, n - 1):
                for left in by_size[a - 1]:
                    for right in by_size[n - 2 - a]:
                        out.append(_compose(_union(left, right), P))
    return tuple(tuple(group) for group in by_size)


T = TypeVar("T")


def _forests(values_by_size: Sequence[Sequence[T]], join: Callable[[T, T], T]) -> Iterator[T]:
    """Each ordered forest of trees with 1..len(values_by_size) atoms in
    all, as its trees' values folded left to right by ``join`` (entry i-1
    holds the values of the trees with i atoms).  Forests come by atom
    count, then tree by tree, smaller trees first.  One explicit stack
    walks them, so forests with a common prefix share its fold."""
    trees = [(size, v) for size, group in enumerate(values_by_size, start=1) for v in group]
    fit = [0]  # fit[a]: trees of at most a atoms
    for group in values_by_size:
        fit.append(fit[-1] + len(group))
    for total in range(1, len(values_by_size) + 1):
        # (next trees to try, atoms still to place, fold so far or None)
        stack = [(islice(trees, fit[total]), total, None)]
        while stack:
            children, left, prefix = stack[-1]
            for size, v in children:
                value = v if prefix is None else join(prefix, v)
                if size == left:
                    yield value
                else:
                    stack.append((islice(trees, fit[left - size]), left - size, value))
                    break
            else:
                stack.pop()


def enumerate_tiles(max_atoms: int) -> Iterator[TileExpr]:
    """All tiles with 1..max_atoms atoms and no through-wires: ordered
    unions of trees.  Through-wire padding never changes the marked graph,
    so this is the whole supply of marked graphs at the budget."""
    yield from _forests(enumerate_trees(max_atoms), _union)
