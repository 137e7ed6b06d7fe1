"""Formulas, rules, universal sentences, and brute-force evaluation.

The syntax layer is deliberately small: formulas over & | -> ~ box with
constants, rules as premise/conclusion formula sets, and their standard
reading as universal sentences (every formula equated to top).  Evaluation
runs one numpy term evaluator over blocks of assignments and reports the
least counterexample, so results are reproducible down to the witness.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .catalog import AlgebraCatalog
from .errors import CapExceeded, InputError, ParseError
from .finlat import HeytingAlgebra, derived
from .modal import ModalAlgebra

EVAL_CAP = 10**7
RULE_CAP = RULE_CAP_DEFAULT = 100_000

SIGNATURES = ("heyting", "modal")


class Formula:
    """Base class; the node types below form the whole syntax."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    name: str  # "bot" or "top"


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class Box(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


def formula_vars(f: Formula, out: list[str]) -> None:
    """Append variable names in first-occurrence order."""
    if isinstance(f, Var):
        if f.name not in out:
            out.append(f.name)
    elif isinstance(f, (Not, Box)):
        formula_vars(f.arg, out)
    elif isinstance(f, (And, Or, Imp)):
        formula_vars(f.left, out)
        formula_vars(f.right, out)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.arg, mapping))
    if isinstance(f, Box):
        return Box(substitute(f.arg, mapping))
    ctor = type(f)
    return ctor(substitute(f.left, mapping), substitute(f.right, mapping))


@dataclass(frozen=True, slots=True)
class Rule:
    """Premise and conclusion formula sets, kept in written order.

    ``variables`` lists the variables in first-occurrence order over the
    premises, then the conclusions; it is computed once, at construction,
    unless the caller already knows it.
    """

    premises: tuple[Formula, ...]
    conclusions: tuple[Formula, ...]
    signature: str
    variables: tuple[str, ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.variables is None:
            out: list[str] = []
            for f in self.premises + self.conclusions:
                formula_vars(f, out)
            object.__setattr__(self, "variables", tuple(out))


@dataclass(frozen=True, slots=True)
class UniversalSentence:
    """Premise equations imply the disjunction of the conclusion equations."""

    premises: tuple[tuple[Formula, Formula], ...]
    conclusions: tuple[tuple[Formula, Formula], ...]
    signature: str
    variables: tuple[str, ...]

    def __post_init__(self):
        if len(self.premises) + len(self.conclusions) == 0:
            raise InputError("a universal sentence needs at least one equation")

    @property
    def classification(self) -> str:
        m, n = len(self.premises), len(self.conclusions)
        if n == 1 and m == 0:
            return "identity"
        if n == 1:
            return "quasi-identity"
        if m == 0:
            return "positive"
        return "universal"


_TOP = Const("top")


def translate(rule: Rule) -> UniversalSentence:
    """Read a rule as a universal sentence: every formula equated to top."""
    if not rule.premises and not rule.conclusions:
        raise InputError("cannot translate the empty rule")
    return UniversalSentence(
        tuple([(f, _TOP) for f in rule.premises]),
        tuple([(f, _TOP) for f in rule.conclusions]),
        rule.signature,
        rule.variables,
    )


# ---------------------------------------------------------------------------
# Parsing and printing

_TOKEN = re.compile(r"[a-z][a-z0-9]*|->|[&|~(),/]|\S")
_WS = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        pos = _WS.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN.match(text, pos)
        tok = m.group()
        if tok in ("->", "&", "|", "~", "(", ")", ",", "/"):
            out.append((tok, tok, pos))
        elif re.fullmatch(r"[a-z][a-z0-9]*", tok):
            out.append(("name", tok, pos))
        else:
            raise ParseError(f"unexpected character {tok!r}", pos, text)
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, signature: str):
        if signature not in SIGNATURES:
            raise InputError(f"signature must be one of {SIGNATURES}")
        self.text = text
        self.signature = signature
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2], self.text)
        return tok

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek()[0] == "->":
            self.take()
            return Imp(left, self.formula())
        return left

    def or_level(self) -> Formula:
        f = self.and_level()
        while self.peek()[0] == "|":
            self.take()
            f = Or(f, self.and_level())
        return f

    def and_level(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "~":
            self.take()
            return Not(self.unary())
        if kind == "name" and value == "box":
            if self.signature != "modal":
                raise ParseError("box needs the modal signature", pos, self.text)
            self.take()
            return Box(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "(":
            f = self.formula()
            tok = self.take()
            if tok[0] != ")":
                raise ParseError("expected ')'", tok[2], self.text)
            return f
        if kind == "name":
            if value in ("bot", "top"):
                return Const(value)
            return Var(value)
        raise ParseError("expected a formula", pos, self.text)

    def formula_list(self) -> tuple[Formula, ...]:
        if self.peek()[0] in ("/", "end"):
            return ()
        out = [self.formula()]
        while self.peek()[0] == ",":
            self.take()
            out.append(self.formula())
        return tuple(out)


def parse_formula(text: str, signature: str) -> Formula:
    p = _Parser(text, signature)
    f = p.formula()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError("trailing input after formula", tok[2], text)
    return f


def parse_rule(text: str, signature: str) -> Rule:
    p = _Parser(text, signature)
    premises = p.formula_list()
    p.expect("/")
    conclusions = p.formula_list()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError("trailing input after rule", tok[2], text)
    return Rule(premises, conclusions, signature)


def parse(text: str, signature: str):
    """A rule when a '/' separator occurs, otherwise a single formula."""
    if any(tok[0] == "/" for tok in _tokenize(text)):
        return parse_rule(text, signature)
    return parse_formula(text, signature)


def to_text(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, level: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return f.name
    if isinstance(f, Not):
        return "~" + _render(f.arg, 3)
    if isinstance(f, Box):
        return "box " + _render(f.arg, 3)
    if isinstance(f, Imp):
        s = _render(f.left, 1) + " -> " + _render(f.right, 0)
        need = level > 0
    elif isinstance(f, Or):
        s = _render(f.left, 1) + " | " + _render(f.right, 2)
        need = level > 1
    else:
        s = _render(f.left, 2) + " & " + _render(f.right, 3)
        need = level > 2
    return "(" + s + ")" if need else s


def sentence_from_json(doc: dict, signature: str) -> UniversalSentence:
    """Equations as pairs of term strings, premises then conclusions."""
    if not isinstance(doc, dict):
        raise InputError("sentence document must be an object")
    sides = {}
    for key in ("premises", "conclusions"):
        pairs = doc.get(key, [])
        if not isinstance(pairs, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in pairs
        ):
            raise InputError(f"{key} must be a list of [lhs, rhs] pairs")
        sides[key] = tuple(
            (parse_formula(l, signature), parse_formula(r, signature)) for l, r in pairs
        )
    variables: list[str] = []
    for lhs, rhs in sides["premises"] + sides["conclusions"]:
        formula_vars(lhs, variables)
        formula_vars(rhs, variables)
    return UniversalSentence(
        sides["premises"], sides["conclusions"], signature, tuple(variables)
    )


def sentence_to_json(sent: UniversalSentence) -> dict:
    return {
        "premises": [[to_text(l), to_text(r)] for l, r in sent.premises],
        "conclusions": [[to_text(l), to_text(r)] for l, r in sent.conclusions],
    }


# ---------------------------------------------------------------------------
# Evaluation
#
# One evaluator serves sentences, single formulas and free algebras: it
# computes the value of a term at many coordinates at once.  A coordinate
# is one point of evaluation, an assignment in one algebra or a (member,
# assignment) pair across a catalog; values are numpy vectors along the
# coordinate axis, or scalars where they do not vary.  A value is an
# element of the coordinate's own member, by its index there.
#
# A scan takes its coordinates in blocks of two shapes, chosen by each
# member's number of assignments.  Members with at most ``_BLOCK`` share
# flat blocks laid out by ``assignment_layout``.  A larger member is scanned
# alone in blocks from ``box_layout``, sub-boxes of its assignment product
# with one axis per varying variable, so numpy broadcasting computes a
# subterm only over its own variables' axes.  Either block, read in C
# order, is a run of consecutive coordinates.
#
# A scan takes a list of sentences.  Sentences with the same ``variables``
# tuple share their variable values, so they are scanned together, in
# chunks of at most ``_CELLS // block`` sentences.  In each block a chunk
# compares each distinct (lhs, rhs) equation once, keyed by the identity of
# its two formulas (a frozen formula hashes by recursing, an id does not),
# and ANDs the row into the rows of the sentences that use it: one matrix
# of sentences by coordinates.  Its refuting cells, read in order, give
# each (sentence, member) pair's least counterexample; the rest of that
# member's cells are skipped.
#
# A scan that fits in one block evaluates each equation's sides directly
# with ``term_values``.  A scan over more than one block first compiles
# each chunk's equations into one straight-line program (``_program``), a
# step per structurally distinct subterm, and runs it in every block, so
# each distinct subterm is computed once per block and no block recurses.

_BLOCK = 1 << 13
_CELLS = 1 << 16


def _offsets(lengths) -> list[int]:
    """Where each piece begins when pieces of these lengths are laid end to
    end, and last where they all end."""
    return list(itertools.accumulate(lengths, initial=0))


def _spread(counts, values):
    """Per-coordinate vector of one value per member, or the value itself."""
    if len(counts) == 1:
        return values[0]
    return np.repeat(np.array(values, dtype=np.int64), counts)


def _end_to_end(counts, tables, dtype):
    """The members' tables laid end to end in dtype, and each coordinate's
    offset into them; a single table as it is, or cast, with no offset."""
    if len(tables) == 1:
        return tables[0].astype(dtype, copy=False), None
    offsets = _spread(counts, _offsets([len(t) for t in tables])[:-1])
    return np.concatenate(tables, dtype=dtype, casting="unsafe"), offsets


class HeytingOps:
    """Heyting operations on coordinate vectors, by gathers from the tables.

    ``counts[i]`` consecutive coordinates belong to ``members[i]``.  The
    members' tables are flattened and laid end to end, so op(x, y) at a
    coordinate of member i is entry ``base + x * size + y`` with member
    i's table offset and size.  A single algebra is the one-member case:
    its own tables, no offset, scalar size, bot and top.

    Tables and values are in the narrowest ``dtype`` that holds every
    index x * size + y of the largest member: uint16 up to size 256, then
    int32 (int64 past size 46,340).  With values of that dtype and a
    scalar size the index stays in it, and ``take`` gathers without
    widening.  Past an offset the index is intp, so laid-end-to-end
    tables are indexed directly, which costs less than ``take`` on the
    small flat blocks of a catalog.
    """

    def __init__(self, members, counts=(1,)):
        cells = max(A.size for A in members) ** 2
        self.dtype = np.dtype(np.uint16 if cells <= 1 << 16 else np.int32 if cells < 1 << 31 else np.int64)
        self.meet_t, self.base = _end_to_end(counts, [A.meet.ravel() for A in members], self.dtype)
        self.join_t, _ = _end_to_end(counts, [A.join.ravel() for A in members], self.dtype)
        self.imp_t, _ = _end_to_end(counts, [A.imp.ravel() for A in members], self.dtype)
        self.size = _spread(counts, [A.size for A in members])
        self.bot = _spread(counts, [A.bot for A in members])
        self.top = _spread(counts, [A.top for A in members])

    # Each op gathers entry x * size + y of its table, past the member's offset.
    def meet(self, x, y):
        i = x * self.size + y
        return self.meet_t.take(i) if self.base is None else self.meet_t[i + self.base]

    def join(self, x, y):
        i = x * self.size + y
        return self.join_t.take(i) if self.base is None else self.join_t[i + self.base]

    def imp(self, x, y):
        i = x * self.size + y
        return self.imp_t.take(i) if self.base is None else self.imp_t[i + self.base]

    def neg(self, x):
        i = x * self.size + self.bot
        return self.imp_t.take(i) if self.base is None else self.imp_t[i + self.base]

    def box(self, x):
        raise InputError("box formula on a heyting algebra")


class ModalOps:
    """Modal operations on coordinate vectors of atom masks.

    Boolean operations are bitwise; box gathers from the members' box
    tables laid end to end, read at each coordinate's member offset.  The
    table and values are uint8 up to 8 atoms, uint16 above (``dtype``);
    gathers as in ``HeytingOps``.
    """

    def __init__(self, members, counts=(1,)):
        self.dtype = np.dtype(np.uint8 if max(A.atoms for A in members) <= 8 else np.uint16)
        self.box_t, self.base = _end_to_end(counts, [A.box for A in members], self.dtype)
        self.bot = 0
        self.top = _spread(counts, [A.top for A in members])

    def meet(self, x, y):
        return x & y

    def join(self, x, y):
        return x | y

    def imp(self, x, y):
        return (self.top ^ x) | y

    def neg(self, x):
        return self.top ^ x

    def box(self, x):
        return self.box_t.take(x) if self.base is None else self.box_t[x + self.base]


def term_ops(members, counts=(1,)):
    """The operation set of the members' signature, over their coordinates."""
    if isinstance(members[0], ModalAlgebra):
        return ModalOps(members, counts)
    return HeytingOps(members, counts)


def term_values(f: Formula, ops, env):
    """Value of f at every coordinate; env maps each variable to its values."""
    kind = type(f)
    if kind is Var:
        return env[f.name]
    if kind is Const:
        return ops.bot if f.name == "bot" else ops.top
    if kind is Not:
        return ops.neg(term_values(f.arg, ops, env))
    if kind is Box:
        return ops.box(term_values(f.arg, ops, env))
    if kind is And:
        return ops.meet(term_values(f.left, ops, env), term_values(f.right, ops, env))
    if kind is Or:
        return ops.join(term_values(f.left, ops, env), term_values(f.right, ops, env))
    if kind is Imp:
        return ops.imp(term_values(f.left, ops, env), term_values(f.right, ops, env))
    raise InputError(f"not a formula: {f!r}")


def _signature(algebra) -> str:
    """The signature of the sentences the algebra evaluates."""
    if isinstance(algebra, ModalAlgebra):
        return "modal"
    if isinstance(algebra, HeytingAlgebra):
        return "heyting"
    raise InputError(f"cannot evaluate on {type(algebra).__name__}")


def _require_signature(algebra, sent: UniversalSentence) -> None:
    want = _signature(algebra)
    if sent.signature != want:
        raise InputError(f"{want} algebra needs a {want}-signature sentence")


def _members(owner) -> tuple:
    """The members of a catalog; an algebra is a catalog of one."""
    return owner.members if isinstance(owner, AlgebraCatalog) else (owner,)


def assignment_layout(owner, nvars: int, stop: int, lo: int, hi: int):
    """Operation set and variable values at coordinates lo..hi-1 of a scan.

    The first ``stop`` members lay their assignments end to end, member by
    member.  Assignment t of a member of size s gives variable v the digit
    of t of weight s**(nvars-1-v), so the first variable is the most
    significant digit.
    """
    members = _members(owner)[:stop]
    starts = _offsets([A.size**nvars for A in members])
    first = bisect.bisect_right(starts, lo) - 1
    last = bisect.bisect_right(starts, hi - 1) - 1
    part = members[first : last + 1]
    counts = [min(hi, starts[i + 1]) - max(lo, starts[i]) for i in range(first, last + 1)]
    t = np.arange(lo, hi, dtype=np.int64) - _spread(counts, starts[first : last + 1])
    size = _spread(counts, [A.size for A in part])
    digits = []
    for _ in range(nvars):
        t, digit = np.divmod(t, size)
        digits.append(digit)
    return term_ops(part, counts), tuple(reversed(digits))


def _box_plan(A):
    """What the sub-box blocks of A's assignments share: A's operation set;
    the cells of a sub-box, as many as ``_BLOCK`` int64 values take in the
    ops' dtype; the number m of trailing variables, the largest with
    size**m <= cells; and their values in that dtype, each along its own
    axis."""
    ops = term_ops([A])
    cells = _BLOCK * 8 // ops.dtype.itemsize
    m = 0
    while A.size ** (m + 1) <= cells:
        m += 1
    axes = tuple(np.arange(A.size, dtype=ops.dtype).reshape((A.size,) + (1,) * (m - 1 - v)) for v in range(m))
    return ops, cells, m, axes


def box_layout(A, nvars: int, t: int):
    """Operation set, shape and variable values of the block of A's
    assignments that begins at assignment t, a sub-box of their product.

    A has more than ``_BLOCK`` assignments.  The last m variables run over
    all values (``_box_plan``, at most nvars - 1 of them), the variable
    before them over ``cells // size**m`` consecutive values, cut off at
    its last value, and the leading variables are fixed, as scalars.  Each
    varying variable's values lie along its own axis of the shape, so numpy
    broadcasting computes a term only over the axes of its own variables.
    Read in C order, the block is assignments t, t+1, ... in the digit
    order of ``assignment_layout``; t is 0 or where the block before ends.
    """
    ops, cells, m, axes = derived(A, _box_plan)
    m = min(m, nvars - 1)
    size = A.size
    tail = size**m
    lead, first = divmod(t // tail, size)
    run = min(cells // tail, size - first)
    fixed = []
    for _ in range(nvars - m - 1):
        lead, digit = divmod(lead, size)
        fixed.append(digit)
    running = np.arange(first, first + run, dtype=ops.dtype).reshape((run,) + (1,) * m)
    return ops, (run,) + (size,) * m, (*reversed(fixed), running, *axes[len(axes) - m :])


def assignment(variables, t: int, size: int) -> dict[str, int]:
    """Assignment t of an algebra of this size, first variable most significant."""
    values = []
    for _ in variables:
        t, digit = divmod(t, size)
        values.append(digit)
    return dict(zip(variables, reversed(values)))


def _extent(owner, nvars: int, cap: int):
    """Each member's number of assignments, where each begins along the
    coordinate axis, and the first member with more than cap of them, or
    the number of members."""
    totals = [A.size**nvars for A in _members(owner)]
    return totals, _offsets(totals), next((i for i, n in enumerate(totals) if n > cap), len(totals))


def _next_big(totals, i: int, stop: int) -> int:
    """The first member from i on with more than ``_BLOCK`` assignments, or stop."""
    return next((j for j in range(i, stop) if totals[j] > _BLOCK), stop)


def _equations(sents, chunk):
    """The distinct equations of the chunk's sentences, premises and
    conclusions apart, each keyed by the identity of its two formulas, in
    first-occurrence order; and, for each one that not every sentence uses,
    the positions in the chunk of those that do."""
    if len(chunk) == 1:
        sent = sents[chunk[0]]
        return (sent.premises, {}), (sent.conclusions, {})
    sides = []
    for side in ("premises", "conclusions"):
        found: dict[tuple[int, int], tuple] = {}
        for pos, s in enumerate(chunk):
            for lhs, rhs in getattr(sents[s], side):
                entry = found.get((id(lhs), id(rhs)))
                if entry is None:
                    entry = found[id(lhs), id(rhs)] = (lhs, rhs, [])
                if not entry[2] or entry[2][-1] != pos:
                    entry[2].append(pos)
        users = {e: np.array(u) for e, (_, _, u) in enumerate(found.values()) if len(u) < len(chunk)}
        sides.append(([(lhs, rhs) for lhs, rhs, _ in found.values()], users))
    return sides


def _slot(f, steps, slot, seen) -> int:
    """The slot of f's step.  Appends, in post-order, a step for each
    subterm of f that has none yet: (kind, name, None) for a variable or a
    constant and (kind, slot, slot) for a connective, the second slot None
    for a unary one.  ``slot`` maps each step to its slot, so equal steps
    are one, and ``seen`` the id of each formula object already placed."""
    todo = [f]
    while todo:
        g = todo[-1]
        if id(g) in seen:
            todo.pop()
            continue
        kind = type(g)
        if kind is Var or kind is Const:
            key = (kind, g.name, None)
        elif kind is Not or kind is Box:
            if id(g.arg) not in seen:
                todo.append(g.arg)
                continue
            key = (kind, seen[id(g.arg)], None)
        elif kind is And or kind is Or or kind is Imp:
            if id(g.left) not in seen or id(g.right) not in seen:
                todo.extend((g.right, g.left))
                continue
            key = (kind, seen[id(g.left)], seen[id(g.right)])
        else:
            raise InputError(f"not a formula: {g!r}")
        todo.pop()
        if key not in slot:
            slot[key] = len(steps)
            steps.append(key)
        seen[id(g)] = slot[key]
    return seen[id(f)]


def _program(equations):
    """The ``_equations`` of a chunk as one straight-line program over its
    structurally distinct subterms (``_slot``), and the equations with each
    formula replaced by its slot.  Steps come equation by equation,
    premises first, so an equation needs only the steps up to its sides.

    Each step also lists the slots to drop once it has run: those that it,
    or an equation compared just before it, reads last.  So a block holds
    about as few values at once as the recursive evaluator does."""
    steps: list[tuple] = []
    slot: dict[tuple, int] = {}
    seen: dict[int, int] = {}
    last: dict[int, int] = {}  # slot -> the step before which it is read last
    sides = []
    for side, users in equations:
        compiled = []
        for lhs, rhs in side:
            pair = _slot(lhs, steps, slot, seen), _slot(rhs, steps, slot, seen)
            compiled.append(pair)
            for s in pair:
                last[s] = len(steps)
        sides.append((compiled, users))
    for i, (kind, x, y) in enumerate(steps):
        if kind is not Var and kind is not Const:
            last[x] = max(last.get(x, 0), i)
            if y is not None:
                last[y] = max(last.get(y, 0), i)
    dead = [[] for _ in steps]
    for s, i in last.items():
        if i < len(steps):
            dead[i].append(s)
    return sides, [(*step, tuple(d)) for step, d in zip(steps, dead)]


def _run(steps, values, stop: int, ops, env) -> None:
    """Run a ``_program``'s steps from where ``values`` ends up to stop,
    each step's value into its slot, dropping those no longer read."""
    for kind, x, y, dead in steps[len(values) : stop]:
        if kind is And:
            values.append(ops.meet(values[x], values[y]))
        elif kind is Or:
            values.append(ops.join(values[x], values[y]))
        elif kind is Imp:
            values.append(ops.imp(values[x], values[y]))
        elif kind is Var:
            values.append(env[x])
        elif kind is Not:
            values.append(ops.neg(values[x]))
        elif kind is Box:
            values.append(ops.box(values[x]))
        else:
            values.append(ops.bot if x == "bot" else ops.top)
        for s in dead:
            values[s] = None


def _refuting(equations, steps, n: int, shape, ops, env):
    """Where n sentences fail in one block: an (n, *shape) matrix, or just
    shape for one sentence, from the ``_equations`` of their premises and
    conclusions, evaluated by ``term_values``, or from their ``_program``
    and its steps; None when no premise holds anywhere."""
    (premises, premise_users), (conclusions, conclusion_users) = equations
    bad = np.empty(shape if n == 1 else (n, *shape), dtype=bool)
    bad.fill(True)
    values = []
    for e, (lhs, rhs) in enumerate(premises):
        if steps is None:
            holds = term_values(lhs, ops, env) == term_values(rhs, ops, env)
        else:
            _run(steps, values, max(lhs, rhs) + 1, ops, env)
            holds = values[lhs] == values[rhs]
        users = premise_users.get(e)
        if users is None:
            bad &= holds
        else:
            bad[users] &= holds
        if not np.count_nonzero(bad):
            return None
    for e, (lhs, rhs) in enumerate(conclusions):
        if steps is None:
            fails = term_values(lhs, ops, env) != term_values(rhs, ops, env)
        else:
            _run(steps, values, max(lhs, rhs) + 1, ops, env)
            fails = values[lhs] != values[rhs]
        users = conclusion_users.get(e)
        if users is None:
            bad &= fails
        else:
            bad[users] &= fails
    return bad


def refutations(owner, sents, cap: int = EVAL_CAP):
    """Each (sentence, member) pair where the member refutes the sentence.

    ``owner`` is a catalog or one algebra, ``sents`` a sequence of
    sentences.  Yields (sentence index, member index, t), where t numbers
    the member's least counterexample among its assignments (``assignment``
    spells it out).  Each sentence's members come in member order.

    Every member's assignments are laid end to end along one coordinate
    axis and scanned in blocks.  A member with at most ``_BLOCK``
    assignments is scanned in flat blocks of up to ``_BLOCK`` coordinates
    that may span such members and stop where a larger member begins
    (``assignment_layout``).  A larger member is scanned alone, in blocks
    that are sub-boxes of its assignment product (``box_layout``), so each
    subterm is computed only over its own variables.  A scan that fits in
    one block keeps its operation set and variable values on the owner, per
    number of variables, and evaluates each equation directly.  Sentences
    with the same variables are scanned together, a chunk at a time; once
    every sentence of a chunk has failed on a member, the rest of the
    member is skipped.  A scan over more than one block runs each chunk's
    equations as one program, built once per chunk (``_program``), that
    computes each distinct subterm once per block.

    The first sentence, in list order, of another signature than the
    owner's (``InputError``) or with more than ``cap`` assignments on a
    member (``CapExceeded``, naming the member's index and size when
    ``owner`` is a catalog) ends the scan.  The sentences before it are
    scanned in full, it is scanned on the members before the refused one,
    and then the refusal is raised.  So the scan yields what scanning the
    sentences one at a time would.  One sentence is scanned lazily, block
    by block: a caller that stops at its first refutation scans no further.
    """
    members = _members(owner)
    if not members or not sents:
        return
    signature = _signature(members[0])
    groups: dict[tuple, list[int]] = {}
    for s, sent in enumerate(sents):
        groups.setdefault((sent.signature, sent.variables), []).append(s)
    # Each group's extent; the first sentence refused, and the member it
    # is refused on.
    plans = []
    refused, refused_at = len(sents), len(members)
    for (sig, variables), idx in groups.items():
        extent = derived(owner, _extent, len(variables), cap)
        at = extent[2] if sig == signature else 0
        if at < len(members) and idx[0] < refused:
            refused, refused_at = idx[0], at
        plans.append((variables, idx, extent))
    for variables, idx, (totals, starts, _) in plans:
        nvars = len(variables)
        if idx[0] == refused:
            idx, stop = [refused], refused_at
        else:
            idx, stop = idx[: bisect.bisect_left(idx, refused)], len(members)
        end = starts[stop]
        if not end:
            continue
        per = max(1, _CELLS // min(end, _BLOCK))
        for c in range(0, len(idx), per):
            chunk = idx[c : c + per]
            # A scan over more than one block runs one program per chunk,
            # each distinct subterm once per block.
            equations, steps = _equations(sents, chunk), None
            if end > _BLOCK:
                equations, steps = _program(equations)
            # The next member scanned alone in sub-boxes, or stop; flat blocks
            # end where it begins.  A scan that fits in one block has none.
            big = _next_big(totals, 0, stop) if end > _BLOCK else stop
            # Per sentence, where the member it last failed on ends: its
            # cells before that are skipped.
            lo, resume = 0, [0] * len(chunk)
            while lo < end:
                if lo < starts[big]:
                    hi = min(lo + _BLOCK, starts[big])
                    args = (nvars, stop, lo, hi)
                    ops, digits = derived(owner, assignment_layout, *args) if hi - lo == end else assignment_layout(owner, *args)
                    shape = (hi - lo,)
                else:
                    ops, shape, digits = box_layout(members[big], nvars, lo - starts[big])
                    hi = lo + math.prod(shape)
                bad = _refuting(equations, steps, len(chunk), shape, ops, dict(zip(variables, digits)))
                if bad is not None:
                    width = hi - lo
                    cells = bad.ravel().nonzero()[0]  # (sentence, coordinate) cells, sentence by sentence
                    j = 0
                    while j < cells.size:
                        pos, k = divmod(int(cells[j]), width)
                        if lo + k >= resume[pos]:
                            i = bisect.bisect_right(starts, lo + k) - 1
                            yield chunk[pos], i, lo + k - starts[i]
                            resume[pos] = starts[i + 1]
                        j = int(cells.searchsorted(pos * width + min(resume[pos] - lo, width)))
                # Once every sentence has failed on the member the block ends
                # in, the rest of that member is skipped.
                lo = max(hi, min(resume))
                if big < stop and lo == starts[big + 1]:
                    big = _next_big(totals, big + 1, stop)
    if refused < len(sents):
        _require_signature(members[0], sents[refused])
        where = (
            f"catalog member {refused_at} ({members[refused_at].size} elements)"
            if isinstance(owner, AlgebraCatalog) else "this algebra"
        )
        raise CapExceeded(
            f"sentence needs {members[refused_at].size ** len(sents[refused].variables)} assignments "
            f"on {where}, cap is {cap} (EVAL_CAP, default {EVAL_CAP}); raise --cap or use fewer variables"
        )


def eval_sentence(algebra, sent: UniversalSentence, cap: int = EVAL_CAP) -> dict:
    """Validity on one algebra, with the least counterexample when refuted.

    Assignments are ordered with the first variable as the most significant
    digit and elements in index order.
    """
    _require_signature(algebra, sent)
    for _, _, t in refutations(algebra, (sent,), cap):
        return {"valid": False, "counterexample": assignment(sent.variables, t, algebra.size)}
    return {"valid": True, "counterexample": None}


def catalog_validates(cat, sent: UniversalSentence, cap: int = EVAL_CAP) -> dict:
    """Validity across a catalog; names the first failing member."""
    for _, i, t in refutations(cat, (sent,), cap):
        counterexample = assignment(sent.variables, t, cat.members[i].size)
        return {"valid": False, "failing_member": i, "counterexample": counterexample}
    return {"valid": True, "failing_member": None, "counterexample": None}


def rule_failures(owner, space: RuleSpace):
    """Which members refute each rule of the space: a bool matrix of rules
    by members, rules in space order.

    A pool formula's truth row holds, at each coordinate, whether the
    formula equals top there; the coordinates are every member's
    assignments to all of the pool's variables, laid end to end as in
    ``assignment_layout``.  A premise set's row is the AND of its premises'
    rows.  A rule fails on a member when the member's span has a coordinate
    where its premise row is set and its conclusion row clear: each
    coordinate extends an assignment to the rule's own variables, so that
    is exactly when the member refutes the rule's sentence.  Coordinates
    are taken in flat blocks, narrower than ``_BLOCK`` so that the premise
    rows of a block stay near ``_CELLS * 16`` cells, and each member's
    counts of such coordinates, premise set by conclusion, are one matrix
    product.  The caller checks the signature and ``EVAL_CAP``.
    """
    members = _members(owner)
    nvars, npool, nsets = len(space.variables), len(space.pool), len(space.premise_sets)
    starts = _offsets([A.size**nvars for A in members])
    # Each run of premise sets of one size k, as an (n, k) array of pool indices.
    sizes, a = [], 0
    for k, run in itertools.groupby(space.premise_sets, len):
        b = a + sum(1 for _ in run)
        sizes.append((a, b, np.array(space.premise_sets[a:b], dtype=np.intp).reshape(b - a, k)))
        a = b
    width = max(1, min(_BLOCK, (_CELLS << 4) // max(1, nsets)))
    fails = np.zeros((len(members), nsets, npool), dtype=bool)
    for lo in range(0, starts[-1], width):
        hi = min(lo + width, starts[-1])
        ops, digits = assignment_layout(owner, nvars, len(members), lo, hi)
        env = dict(zip(space.variables, digits))
        truth = np.empty((npool, hi - lo), dtype=bool)
        for j, f in enumerate(space.pool):
            truth[j] = term_values(f, ops, env) == ops.top
        held = np.empty((nsets, hi - lo), dtype=np.float32)
        for a, b, idx in sizes:
            row = np.ones((b - a, hi - lo), dtype=bool)
            for col in idx.T:
                row &= truth[col]
            held[a:b] = row
        missed = (~truth).astype(np.float32)
        # Counts stay below 2**24, so float32 products count exactly.
        i = bisect.bisect_right(starts, lo) - 1
        while i < len(members) and starts[i] < hi:
            span = slice(max(lo, starts[i]) - lo, min(hi, starts[i + 1]) - lo)
            fails[i] |= held[:, span] @ missed[:, span].T > 0
            i += 1
    return fails.reshape(len(members), -1).T


def eval_formula(algebra, f: Formula, env: dict[str, int]) -> int:
    """One formula under one assignment; env maps variable names to elements."""
    return int(term_values(f, term_ops([algebra]), env))


# ---------------------------------------------------------------------------
# Candidate enumeration for the completeness falsifiers


def enumerate_formulas(signature: str, variables: tuple[str, ...], depth: int) -> list[Formula]:
    """All formulas to the given connective depth, deterministically ordered.

    Round r adds exactly the formulas of depth r, all of them new: each
    unary connective on each formula of depth r - 1, and each binary one on
    each ordered pair with an argument of depth r - 1.  So the pool size
    after a round is known before the round is built, and a round that
    would take it past ``RULE_CAP`` is refused: every candidate rule draws
    its conclusion from the pool, so such a pool could only feed more than
    ``RULE_CAP`` candidates.
    """
    if signature not in SIGNATURES:
        raise InputError(f"signature must be one of {SIGNATURES}")
    pool: list[Formula] = [Var(v) for v in variables] + [Const("bot"), Const("top")]
    seen = set(pool)
    unary = 2 if signature == "modal" else 1
    fresh = len(pool)
    for d in range(1, depth + 1):
        older = len(pool) - fresh
        size = len(pool) + unary * fresh + 3 * (len(pool) ** 2 - older**2)
        if size > RULE_CAP:
            raise CapExceeded(
                f"{size} formulas at depth {d} requested, RULE_CAP is {RULE_CAP} "
                f"(default {RULE_CAP_DEFAULT}); lower --depth or --max-vars, no flag raises it"
            )
        prev = list(pool)
        for f in prev:
            new: list[Formula] = [Not(f)]
            if signature == "modal":
                new.append(Box(f))
            for g in prev:
                new.extend((And(f, g), Or(f, g), Imp(f, g)))
            for cand in new:
                if cand not in seen:
                    seen.add(cand)
                    pool.append(cand)
        fresh = len(pool) - len(prev)
    return pool


class RuleSpace(Sequence):
    """The candidate rules over a formula pool, as indices into it.

    ``premise_sets`` holds tuples of pool indices; each pool formula is a
    conclusion.  Rule i has premise set ``premise_sets[i // len(pool)]``
    and conclusion ``pool[i % len(pool)]``, and is built only when it is
    asked for.  ``variables`` lists the pool's variables in first-occurrence
    order; a rule's own ``variables`` merge those of its premises and its
    conclusion in first-occurrence order.
    """

    def __init__(self, signature: str, pool: list[Formula], premise_sets: tuple[tuple[int, ...], ...]):
        self.signature = signature
        self.pool = tuple(pool)
        self.premise_sets = premise_sets
        self._found = []  # each pool formula's variables, found once
        for f in self.pool:
            names: list[str] = []
            formula_vars(f, names)
            self._found.append(tuple(names))
        self.variables = tuple(dict.fromkeys(v for names in self._found for v in names))

    def __len__(self) -> int:
        return len(self.premise_sets) * len(self.pool)

    def __getitem__(self, i: int) -> Rule:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"rule index {i} out of range for {n} rules")
        return self._rule(*divmod(i % n, len(self.pool)))

    def __iter__(self):
        for p in range(len(self.premise_sets)):
            for c in range(len(self.pool)):
                yield self._rule(p, c)

    def _rule(self, p: int, c: int) -> Rule:
        idx = self.premise_sets[p]
        variables = tuple(dict.fromkeys(v for j in (*idx, c) for v in self._found[j]))
        return Rule(tuple(self.pool[j] for j in idx), (self.pool[c],), self.signature, variables)


def enumerate_rules(signature: str, max_vars: int, max_premises: int, depth: int = 1) -> RuleSpace:
    """Candidate rules over a bounded formula pool, smallest first: every
    set of at most ``max_premises`` pool formulas, by size and then in
    ``itertools.combinations`` order, with each pool formula as conclusion.

    The pool uses the first ``max_vars`` of the variables p, q, r, s, so
    ``max_vars`` must lie in 1..4.  More than ``RULE_CAP`` candidates are
    refused before any premise set is listed.
    """
    names = ("p", "q", "r", "s")
    if not 1 <= max_vars <= len(names):
        raise InputError(f"max_vars must lie in 1..{len(names)}, got {max_vars}")
    pool = enumerate_formulas(signature, names[:max_vars], depth)
    count = sum(math.comb(len(pool), k) for k in range(max_premises + 1)) * len(pool)
    if count > RULE_CAP:
        raise CapExceeded(
            f"{count} candidate rules requested, RULE_CAP is {RULE_CAP} (default {RULE_CAP_DEFAULT}); "
            "lower --max-vars, --max-premises or --depth, no flag raises it"
        )
    premise_sets = tuple(
        itertools.chain.from_iterable(itertools.combinations(range(len(pool)), k) for k in range(max_premises + 1))
    )
    return RuleSpace(signature, pool, premise_sets)


def grz_formula() -> Formula:
    return parse_formula("box(box(p -> box p) -> p) -> p", "modal")
