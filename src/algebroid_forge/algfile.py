"""Parser for ``.alg`` structure-definition files.

A file declares algebroids, tensors, endomorphisms, morphisms and paired
operators, then lists verification tasks.  Every referenced name must be
declared earlier; indices are 1-based in the file and validated against the
rank.  ``#`` starts a comment.  See the README for the full grammar and the
task vocabulary.
"""

from __future__ import annotations

from .calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
)
from .errors import ParseError, SemanticError, clip
from .paired import PairedOperator
from .rational import ExpressionParser, RationalFunction, Token, _at, tokenize


def _frame_index(word: str) -> int | None:
    """k for a frame symbol e<k>, else None; at most 9 ASCII digits keep
    int() of the index cheap and allowed."""
    digits = word[1:]
    if word[:1] == "e" and 0 < len(digits) <= 9 and digits.isascii() and digits.isdigit():
        return int(digits)
    return None

# Bounds on an algebroid declaration, each a ParseError at the offending
# token: parsing allocates rank x coordinates anchor entries, and the checks
# enumerate frame pairs and triples.  The shipped corpus stays at rank
# 4 with 4 coordinates.
MAX_RANK = 32
MAX_COORDS = 32

_CLOSE = {"[": "]", "(": ")"}  # the opening tokens of entries, and their closing ones


class TaskItem:
    """A task line as parsed; equality ignores the line number."""

    __slots__ = ("name", "args", "line")

    def __init__(self, name: str, args: list, line: int = 0):
        self.name, self.args, self.line = name, args, line

    def __eq__(self, other):
        if not isinstance(other, TaskItem):
            return NotImplemented
        return self.name == other.name and self.args == other.args


class StructureFile:
    """The declarations of a file by kind, the parent algebroid of each
    tensor, endo and paired operator, and the tasks."""

    __slots__ = ("algebroids", "tensors", "endos", "morphisms", "paired", "parent", "tasks")

    def __init__(self):
        self.algebroids: dict[str, AlgebroidPresentation] = {}
        self.tensors: dict[str, GradedSection] = {}
        self.endos: dict[str, tuple] = {}
        self.morphisms: dict[str, BundleMorphism] = {}
        self.paired: dict[str, PairedOperator] = {}
        self.parent: dict[str, str] = {}  # tensor, endo or paired name -> algebroid name
        self.tasks: list[TaskItem] = []

    def declared(self, name: str) -> bool:
        tables = (self.algebroids, self.tensors, self.endos, self.morphisms, self.paired)
        return any(name in table for table in tables)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.file = StructureFile()

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.column, what or repr(kind), tok.value or "end of input")
        return self.next()

    def expect_name(self, value: str | None = None) -> Token:
        tok = self.expect("name", value and f"'{value}'")
        if value is not None and tok.value != value:
            raise ParseError(tok.line, tok.column, f"'{value}'", tok.value)
        return tok

    def parse_expr(self, coords) -> RationalFunction:
        parser = ExpressionParser(self.tokens, self.pos, coords)
        value = parser.parse()
        self.pos = parser.pos
        return value

    # -- declarations ------------------------------------------------------

    def parse(self) -> StructureFile:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                raise ParseError(tok.line, tok.column, "a declaration or task", tok.value)
            handler = {
                "algebroid": self._algebroid,
                "tensor": self._tensor,
                "endo": self._endo,
                "morphism": self._morphism,
                "paired": self._paired,
                "task": self._task,
            }.get(tok.value)
            if handler is None:
                raise ParseError(tok.line, tok.column, "a declaration or task keyword", tok.value)
            handler()
        return self.file

    def _fresh_name(self) -> str:
        tok = self.expect("name", "a name")
        if self.file.declared(tok.value):
            raise SemanticError(f"duplicate name {clip(tok.value)!r}", tok.line, tok.column)
        return tok.value

    def _lookup_algebroid(self, tok: Token) -> AlgebroidPresentation:
        A = self.file.algebroids.get(tok.value)
        if A is None:
            raise SemanticError(f"unknown algebroid {clip(tok.value)!r}", tok.line, tok.column)
        return A

    def _index(self, bound) -> int:
        """One entry index, 0-based: a frame number in ``1..bound``, or one of
        the coordinates when ``bound`` is a chart."""
        if isinstance(bound, int):
            tok = self.expect("int", "an integer")
            if not 1 <= int(tok.value) <= bound:
                raise SemanticError(f"index {clip(tok.value)} outside 1..{bound}", tok.line, tok.column)
            return int(tok.value) - 1
        tok = self.expect("name", "a coordinate name")
        if tok.value not in bound:
            raise SemanticError(f"unknown coordinate {clip(tok.value)!r}", tok.line, tok.column)
        return bound.index(tok.value)

    def _body(self, forms: dict) -> None:
        """Entries ``KEY? OPEN index, ... CLOSE = VALUE ;`` up to the closing '}'.

        ``forms`` maps an entry's key word, or its opening '(' or '[' when it
        has none, to (bounds, store): one bound per index (see _index), and
        ``store(idx, first)`` parses the value, keeps it and returns what
        makes the entry unique.  An entry given twice is an error at its
        first token."""
        seen = set()
        while (form := forms.get(self.peek().value)) is not None:
            bounds, store = form
            start = self.pos
            first = self.next()
            opener = first if first.kind in _CLOSE else self.expect("[")
            idx = []
            for bound in bounds:
                if idx:
                    self.expect(",")
                idx.append(self._index(bound))
            self.expect(_CLOSE[opener.kind])
            entry = "".join(tok.value for tok in self.tokens[start : self.pos])
            self.expect("=")
            key = (first.value, store(tuple(idx), first))
            if key in seen:
                raise SemanticError(f"{clip(entry)} set twice", first.line, first.column)
            seen.add(key)
            self.expect(";")
        self.expect("}")

    def _into(self, table, coords):
        """A store that parses an expression over ``coords`` into ``table[i][j]...``."""

        def store(idx, _first):
            cells = table
            for k in idx[:-1]:
                cells = cells[k]
            cells[idx[-1]] = self.parse_expr(coords)
            return idx

        return store

    def _algebroid(self):
        self.expect_name("algebroid")
        name = self._fresh_name()
        self.expect("{")
        self.expect_name("base")
        self.expect("=")
        self.expect("[")
        coords = []
        if self.peek().kind == "name":
            coords.append(self.next().value)
            while self.peek().kind == ",":
                self.next()
                tok = self.expect("name", "a coordinate name")
                if len(coords) == MAX_COORDS:
                    raise ParseError(tok.line, tok.column, f"at most {MAX_COORDS} coordinates", tok.value)
                if tok.value in coords:
                    raise SemanticError(f"duplicate coordinate {clip(tok.value)!r}", tok.line, tok.column)
                coords.append(tok.value)
        self.expect("]")
        self.expect(";")
        self.expect_name("rank")
        self.expect("=")
        tok = self.expect("int", "an integer")
        rank = int(tok.value)
        if rank < 1:
            raise SemanticError("rank must be positive", tok.line, tok.column)
        if rank > MAX_RANK:
            raise ParseError(tok.line, tok.column, f"a rank of at most {MAX_RANK}", tok.value)
        self.expect(";")
        coords = tuple(coords)
        zero = RationalFunction.zero(coords)
        anchor = [[zero for _ in coords] for _ in range(rank)]
        structure = {}

        def bracket(idx, first):
            i, j = sorted(idx)
            if i == j:
                message = f"bracket[{i + 1},{j + 1}] needs two different indices"
                raise SemanticError(message, first.line, first.column)
            entries = self._lincomb(coords, rank).items()
            structure[(i, j)] = tuple((k, c if idx == (i, j) else -c) for k, c in entries)
            return i, j

        anchor_entry = self._into(anchor, coords)
        self._body({"anchor": ((rank, coords), anchor_entry), "bracket": ((rank, rank), bracket)})
        self.file.algebroids[name] = AlgebroidPresentation(
            coords,
            rank,
            tuple(tuple(r) for r in anchor),
            structure,
            name=name,
        )

    def _lincomb(self, coords, rank) -> dict[int, RationalFunction]:
        # lincomb := "0" | [sign] term (("+"|"-") term)*,
        # term := (EXPR "*")? FRAME with FRAME = e<digits>
        out: dict[int, RationalFunction] = {}
        tok = self.peek()
        if tok.kind == "int" and tok.value == "0":
            after = self.tokens[self.pos + 1]
            if after.kind == ";":
                self.next()
                return out
        sign = 1
        while True:
            while self.peek().kind in ("+", "-"):
                if self.next().kind == "-":
                    sign = -sign
            start = self.pos
            frame_at = self._find_frame_token(start)
            if frame_at is None:
                tok = self.peek()
                raise ParseError(tok.line, tok.column, "a frame term like e1 or f*e1", tok.value)
            if frame_at == start:
                coeff = RationalFunction.one(coords)
            else:
                star = self.tokens[frame_at - 1]
                if star.kind != "*":
                    raise ParseError(star.line, star.column, "'*' before the frame symbol", star.value)
                sub = self.tokens[start : frame_at - 1] + [Token("eof", "", star.line, star.column)]
                parser = ExpressionParser(sub, 0, coords)
                coeff = parser.parse()
                if parser.peek().kind != "eof":
                    bad = parser.peek()
                    raise ParseError(bad.line, bad.column, "end of coefficient", bad.value)
            frame_tok = self.tokens[frame_at]
            k = _frame_index(frame_tok.value)
            if not 1 <= k <= rank:
                raise SemanticError(
                    f"frame index e{k} outside rank {rank}", frame_tok.line, frame_tok.column
                )
            self.pos = frame_at + 1
            value = coeff if sign == 1 else -coeff
            prev = out.get(k - 1)
            out[k - 1] = value if prev is None else _at(frame_tok, prev.__add__, value)
            sign = 1
            if self.peek().kind in ("+", "-"):
                continue
            break
        return out

    def _find_frame_token(self, start: int) -> int | None:
        depth = 0
        i = start
        while i < len(self.tokens):
            tok = self.tokens[i]
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
            elif depth == 0 and tok.kind in (";", "+", "-") and i > start:
                return None
            elif depth == 0 and tok.kind == "name" and _frame_index(tok.value) is not None:
                nxt = self.tokens[i + 1]
                if nxt.kind in (";", "+", "-", "eof"):
                    return i
            elif tok.kind == "eof":
                return None
            i += 1
        return None

    def _tensor(self):
        self.expect_name("tensor")
        name = self._fresh_name()
        self.expect_name("on")
        parent_tok = self.expect("name", "an algebroid name")
        A = self._lookup_algebroid(parent_tok)
        kind_tok = self.expect("name", "'multivector' or 'form'")
        if kind_tok.value not in (MULTIVECTOR, FORM):
            raise ParseError(kind_tok.line, kind_tok.column, "'multivector' or 'form'", kind_tok.value)
        self.expect_name("degree")
        dtok = self.expect("int", "an integer")
        degree = int(dtok.value)
        self.expect("{")
        # degrees above the rank only admit the zero section (empty body)
        if degree > A.rank and self.peek().kind == "(":
            raise SemanticError(
                f"degree {clip(str(degree))} exceeds rank {A.rank}: only the empty (zero) section is allowed",
                dtok.line,
                dtok.column,
            )
        coeffs = {}

        def entry(idx, first):
            if any(b <= a for a, b in zip(idx, idx[1:])):
                message = f"index tuple {clip(str(tuple(k + 1 for k in idx)))} must be strictly increasing"
                raise SemanticError(message, first.line, first.column)
            coeffs[idx] = self.parse_expr(A.coords)
            return idx

        self._body({"(": ((A.rank,) * degree, entry)} if degree <= A.rank else {})
        self.file.tensors[name] = A.section(kind_tok.value, degree, coeffs)
        self.file.parent[name] = parent_tok.value

    def _endo(self):
        self.expect_name("endo")
        name = self._fresh_name()
        self.expect_name("on")
        parent_tok = self.expect("name", "an algebroid name")
        A = self._lookup_algebroid(parent_tok)
        zero = A.zero_rf()
        matrix = [[zero for _ in range(A.rank)] for _ in range(A.rank)]
        self.expect("{")
        self._body({"[": ((A.rank, A.rank), self._into(matrix, A.coords))})
        self.file.endos[name] = tuple(tuple(r) for r in matrix)
        self.file.parent[name] = parent_tok.value

    def _morphism(self):
        self.expect_name("morphism")
        name = self._fresh_name()
        self.expect(":")
        src = self._lookup_algebroid(self.expect("name", "a source algebroid"))
        self.expect("arrow")
        dst = self._lookup_algebroid(self.expect("name", "a target algebroid"))
        self.expect("{")
        zero = RationalFunction.zero(src.coords)
        base = [zero for _ in dst.coords]
        matrix = [[zero for _ in range(src.rank)] for _ in range(dst.rank)]
        self._body(
            {
                "base": ((dst.coords,), self._into(base, src.coords)),
                "matrix": ((dst.rank, src.rank), self._into(matrix, src.coords)),
            }
        )
        self.file.morphisms[name] = BundleMorphism(
            src, dst, tuple(base), tuple(tuple(r) for r in matrix), name=name
        )

    def _paired(self):
        self.expect_name("paired")
        name = self._fresh_name()
        self.expect_name("on")
        parent_tok = self.expect("name", "an algebroid name")
        A = self._lookup_algebroid(parent_tok)
        parent = parent_tok.value
        self.expect("{")
        parts = []
        for key, table, kind, what in (
            ("N", self.file.endos, None, "an endo"),
            ("pi", self.file.tensors, (MULTIVECTOR, 2), "a degree-2 multivector"),
            ("sigma", self.file.tensors, (FORM, 2), "a degree-2 form"),
        ):
            self.expect_name(key)
            self.expect("=")
            tok = self.expect("name", "a declared name")
            value = table.get(tok.value)
            on_parent = value is not None and self.file.parent[tok.value] == parent
            if not on_parent or (kind is not None and (value.variance, value.degree) != kind):
                message = f"{clip(tok.value)!r} must be {what} on {clip(parent)}"
                raise SemanticError(message, tok.line, tok.column)
            parts.append(value)
            self.expect(";")
        self.expect("}")
        self.file.paired[name] = PairedOperator(A, *parts, name=name)
        self.file.parent[name] = parent

    def _task(self):
        head = self.expect_name("task")
        name_tok = self.expect("name", "a task name")
        name = name_tok.value
        while self.peek().kind == "-":
            self.next()
            name += "-" + self.expect("name", "task name continuation").value
        args = []
        while self.peek().kind != ";":
            tok = self.peek()
            if tok.kind == "name":
                args.append(self.next().value)
            elif tok.kind == "int":
                args.append(int(self.next().value))
            elif tok.kind == "[":
                self.next()
                group = []
                while self.peek().kind in ("name", "int"):
                    entry = self.next()
                    group.append(int(entry.value) if entry.kind == "int" else entry.value)
                    if self.peek().kind == ",":
                        self.next()
                        continue
                    break
                self.expect("]")
                args.append(group)
            elif tok.kind == "eof":
                raise ParseError(tok.line, tok.column, "';'", "end of input")
            else:
                raise ParseError(tok.line, tok.column, "a task argument", tok.value)
        self.expect(";")
        self.file.tasks.append(TaskItem(name, args, head.line))


def parse(text: str) -> StructureFile:
    """Parse a structure file; ParseError/SemanticError carry positions."""
    return _Parser(text).parse()

