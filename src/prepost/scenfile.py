"""Line-oriented scenario text format: parser, serializer, Scenario bridge.

A file declares a labeled basis, states as amplitude sums over it,
pre/post-selection roles, projectors (basis ket-bra or span), and
observables as eigenvalue-weighted projector sums:

    # three boxes
    basis a b c
    state psi = (1/sqrt(3)) a + (1/sqrt(3)) b + (1/sqrt(3)) c
    state phi = (1/sqrt(3)) a + (1/sqrt(3)) b - (1/sqrt(3)) c
    pre psi
    post phi
    proj PC = |c><c|
    proj PCc = span(a, b)
    obs C = 1*PC + 0*PCc

Amplitudes are decimal (optionally complex, written without spaces:
`1.0+0.5i`) or exact surd expressions like `(1/sqrt(3))`; the Unicode
forms `⟨ ⟩ √` are accepted as aliases of `< > sqrt`, and names may use
any Unicode letters.  States must arrive normalized to within 1e-6
unless the declaration carries `normalize`.  All diagnostics carry
source positions.

A line ends at `\n`, `\r\n` or `\r`, and nowhere else: the other Unicode
line and paragraph separators (`\v`, `\f`, U+001C-U+001E, U+0085, U+2028,
U+2029) are whitespace, in comments too.  `decode` reads a file's bytes
and reports an invalid UTF-8 byte at the line and column `parse` counts.

Declarations are content-only records, so documents compare by content
and `parse(serialize(doc)) == doc`.  The positions live in one table,
`doc.lines`: `parse` fills it with the line of each declared name and of
the `pre` and `post` directives, and `to_scenario` reads it for the lines
of its errors.  A hand-built document has an empty table.
"""

from __future__ import annotations

import math
import re
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

from .errors import NormalizationError, NotFinite, ParseError
from .linalg import (
    DECLARED_NORM_TOL, EXACT_TOL, REAL_TOL, ZERO_TOL, CVec, label_index, scaled_tol,
)
from .quantum import Observable, Projector, State
from .scenarios import Scenario

RESERVED = {"basis", "state", "pre", "post", "proj", "obs", "normalize", "span", "sqrt", "i"}

_NUM = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"""\s+
      | (?P<complex>(?:{_NUM}[+-])?{_NUM}i(?![\w.]))
      | (?P<num>{_NUM})
      | (?P<word>[^\W\d_]\w*)
      | (?P<sqrt_sym>√)
      | (?P<sym>[()|<>=*/+,-])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)
_LINE_END = re.compile(r"\r\n|\r|\n")


class Token(NamedTuple):
    kind: str  # complex | num | word | sqrt_sym | sym
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int) -> list[Token]:
    text = text.replace("⟨", "<").replace("⟩", ">")
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line_no, m.start() + 1)
        if m.lastgroup is not None:
            tokens.append(Token(m.lastgroup, m.group(), line_no, m.start() + 1))
    return tokens


class _Cursor:
    """Token stream for one line; exhaustion raises a positioned error."""

    def __init__(self, tokens: list[Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.line_no = line_no
        self.line_len = line_len
        self.i = 0

    def peek(self, ahead: int = 0) -> Optional[Token]:
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def next(self) -> Token:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of line", self.line_no, self.line_len + 1)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def accept(self, kind: str, *texts: str) -> Optional[Token]:
        """Consume and return the next token if it has this kind and one of these texts."""
        tok = self.peek()
        if tok is None or tok.kind != kind or tok.text not in texts:
            return None
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> Token:
        tok = self.next()
        if tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_word(self) -> Token:
        tok = self.next()
        if tok.kind != "word":
            raise ParseError(f"expected a name, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_end(self):
        if not self.at_end():
            tok = self.tokens[self.i]
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)


def _complex_value(tok: Token, minus_against: bool) -> complex:
    """Value of a complex literal.

    A '-' written against a literal with a real part negates that part
    alone (`-0.6+0.8i`); the caller applies the '-' to the whole value, so
    the literal is conjugated here to cancel it on the imaginary part.
    """
    value = complex(tok.text[:-1] + "j")
    if minus_against and not re.fullmatch(rf"{_NUM}i", tok.text):
        return value.conjugate()
    return value


def _checked_sqrt(value: complex, tok: Token) -> complex:
    if abs(value.imag) > EXACT_TOL or value.real < 0:
        raise ParseError("sqrt argument must be a nonnegative real", tok.line, tok.col)
    return complex(math.sqrt(value.real))


def _scalar_expr(cur: _Cursor) -> complex:
    value = _scalar_term(cur)
    while t := cur.accept("sym", "+", "-"):
        rhs = _scalar_term(cur)
        value = value + rhs if t.text == "+" else value - rhs
    return value


def _scalar_term(cur: _Cursor) -> complex:
    value = _scalar_factor(cur)
    while (t := cur.peek()) is not None and t.kind == "sym" and t.text in "*/":
        if t.text == "*":
            after = cur.peek(1)
            # a '*' that introduces a projector name belongs to the caller
            if after is not None and after.kind == "word" and after.text != "sqrt":
                break
            cur.next()
            value = value * _scalar_factor(cur)
        else:
            cur.next()
            rhs = _scalar_factor(cur)
            if rhs == 0:
                raise ParseError("division by zero", t.line, t.col)
            value = value / rhs
    return value


def _scalar_factor(cur: _Cursor) -> complex:
    if cur.accept("sym", "-"):
        return -_scalar_factor(cur)
    return _scalar_atom(cur)


def _scalar_atom(cur: _Cursor) -> complex:
    tok = cur.next()
    if tok.kind == "num":
        return complex(float(tok.text))
    if tok.kind == "complex":
        before = cur.tokens[cur.i - 2] if cur.i >= 2 else None
        return _complex_value(
            tok, before is not None and before.text == "-" and before.col + 1 == tok.col
        )
    if tok.kind == "word" and tok.text == "sqrt":
        cur.expect_sym("(")
        inner = _scalar_expr(cur)
        cur.expect_sym(")")
        return _checked_sqrt(inner, tok)
    if tok.kind == "sqrt_sym":
        return _checked_sqrt(_scalar_atom(cur), tok)
    if tok.kind == "sym" and tok.text == "(":
        value = _scalar_expr(cur)
        cur.expect_sym(")")
        return value
    raise ParseError(f"expected a number, got {tok.text!r}", tok.line, tok.col)


class StateDecl(NamedTuple):
    name: str
    terms: tuple[tuple[complex, str], ...]
    normalize: bool = False


class ProjDecl(NamedTuple):
    name: str
    kind: str  # ketbra | span
    args: tuple[str, ...]


class ObsDecl(NamedTuple):
    name: str
    terms: tuple[tuple[float, str], ...]


class ScenarioDoc(NamedTuple):
    basis: tuple[str, ...] = ()
    states: tuple[StateDecl, ...] = ()
    projs: tuple[ProjDecl, ...] = ()
    obs: tuple[ObsDecl, ...] = ()
    pre: Optional[str] = None
    post: Optional[str] = None
    #: Source line of each declared name and of the `pre` and `post` directives;
    #: empty unless the document came from `parse`.
    lines = MappingProxyType({})


class _ParsedDoc(ScenarioDoc):
    """A parsed document; its instance `lines` holds the parser's table."""


def _parse_sum(cur: _Cursor, parse_term: Callable[[_Cursor], tuple[complex, Token]]):
    """Signed sum of terms; returns [(signed coefficient, name token)]."""
    terms = []
    op = cur.accept("sym", "+", "-")  # an optional leading sign
    while True:
        sign = -1.0 if op and op.text == "-" else 1.0
        coeff, name_tok = parse_term(cur)
        terms.append((sign * coeff, name_tok))
        if cur.at_end():
            return terms
        op = cur.next()
        if op.kind != "sym" or op.text not in "+-":
            raise ParseError(
                f"expected '+' or '-' between terms, got {op.text!r}", op.line, op.col
            )


def _finite_coefficient(cur: _Cursor) -> complex:
    """A term's scalar; one whose parts or size overflow is an error at the term's first
    token, so every tolerance scaled by |coefficient| is finite."""
    first = cur.peek()
    coeff = _scalar_term(cur)
    try:
        finite = math.isfinite(abs(coeff))
    except OverflowError:  # both parts finite, |coeff| beyond a double
        finite = False
    if not finite:
        raise ParseError(f"coefficient {coeff!r} is not finite", first.line, first.col)
    return coeff


def _parse_state_term(cur: _Cursor) -> tuple[complex, Token]:
    t = cur.peek()
    if t is not None and t.kind == "word" and t.text != "sqrt":
        return complex(1.0), cur.next()
    coeff = _finite_coefficient(cur)
    cur.accept("sym", "*")
    return coeff, cur.expect_word()


def _parse_obs_term(cur: _Cursor) -> tuple[complex, Token]:
    coeff = _finite_coefficient(cur)
    cur.expect_sym("*")
    return coeff, cur.expect_word()


class _Parser:
    def __init__(self):
        # the line of each declared name and of `pre` and `post` (reserved, so no name)
        self.lines: dict[str, int] = {}
        self.kinds: dict[str, str] = {}
        self.basis: tuple[str, ...] = ()
        self.states: list[StateDecl] = []
        self.projs: list[ProjDecl] = []
        self.obs: list[ObsDecl] = []
        self.pre: Optional[str] = None
        self.post: Optional[str] = None

    def declare(self, tok: Token, kind: str):
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        if tok.text in self.lines:
            raise ParseError(
                f"{tok.text!r} already declared as {self.kinds[tok.text]} "
                f"on line {self.lines[tok.text]}",
                tok.line,
                tok.col,
            )
        self.lines[tok.text], self.kinds[tok.text] = tok.line, kind

    def parse_line(self, cur: _Cursor):
        head = cur.expect_word()
        if head.text == "basis":
            if self.basis:
                raise ParseError("duplicate basis declaration", head.line, head.col)
            labels = [cur.expect_word()]
            while not cur.at_end():
                labels.append(cur.expect_word())
            for tok in labels:
                self.declare(tok, "basis label")
            self.basis = tuple(tok.text for tok in labels)
        elif head.text == "state":
            name = cur.expect_word()
            self.declare(name, "state")
            normalize = cur.accept("word", "normalize") is not None
            cur.expect_sym("=")
            terms = _parse_sum(cur, _parse_state_term)
            self.states.append(
                StateDecl(name.text, tuple((coeff, tok.text) for coeff, tok in terms), normalize)
            )
        elif head.text in ("pre", "post"):
            name = cur.expect_word()
            cur.expect_end()
            if getattr(self, head.text) is not None:
                raise ParseError(f"duplicate {head.text} declaration", head.line, head.col)
            setattr(self, head.text, name.text)
            self.lines[head.text] = head.line
        elif head.text == "proj":
            name = cur.expect_word()
            self.declare(name, "projector")
            cur.expect_sym("=")
            kind, args = self._parse_proj_rhs(cur)
            self.projs.append(ProjDecl(name.text, kind, args))
        elif head.text == "obs":
            name = cur.expect_word()
            self.declare(name, "observable")
            cur.expect_sym("=")
            terms = _parse_sum(cur, _parse_obs_term)
            # REAL_TOL on the line's scale, as a spectrum takes it
            real_tol = scaled_tol(REAL_TOL, [coeff for coeff, _ in terms])
            decl_terms = []
            for coeff, tok in terms:
                if abs(coeff.imag) > real_tol:
                    raise ParseError(
                        f"eigenvalue for {tok.text!r} must be real", tok.line, tok.col
                    )
                decl_terms.append((float(coeff.real), tok.text))
            self.obs.append(ObsDecl(name.text, tuple(decl_terms)))
        else:
            raise ParseError(
                f"unknown directive {head.text!r}; expected basis, state, pre, "
                "post, proj, or obs",
                head.line,
                head.col,
            )
        cur.expect_end()

    def _parse_proj_rhs(self, cur: _Cursor) -> tuple[str, tuple[str, ...]]:
        tok = cur.next()
        if tok.kind == "sym" and tok.text == "|":
            ket = cur.expect_word()
            cur.expect_sym(">")
            cur.expect_sym("<")
            bra = cur.expect_word()
            cur.expect_sym("|")
            if ket.text != bra.text:
                raise ParseError(
                    f"ket {ket.text!r} and bra {bra.text!r} must match in a projector",
                    bra.line,
                    bra.col,
                )
            return "ketbra", (ket.text,)
        if tok.kind == "word" and tok.text == "span":
            cur.expect_sym("(")
            args = [cur.expect_word().text]
            while cur.accept("sym", ","):
                args.append(cur.expect_word().text)
            cur.expect_sym(")")
            return "span", tuple(args)
        raise ParseError(
            f"expected '|label><label|' or 'span(...)', got {tok.text!r}",
            tok.line,
            tok.col,
        )


def decode(data: bytes) -> str:
    """A scenario file's text: its bytes as UTF-8 after one leading byte order mark.

    A byte that is not UTF-8 is a ParseError at the line and column `parse`
    counts for it.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")  # one UTF-8 BOM, as editors save it
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _LINE_END.split(data[: exc.start].decode("utf-8"))
        raise ParseError(
            f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}", len(lines), len(lines[-1]) + 1
        ) from None


def parse(text: str) -> ScenarioDoc:
    parser = _Parser()
    for line_no, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        try:
            parser.parse_line(_Cursor(tokens, line_no, len(line)))
        except RecursionError:  # the scalar grammar recurses once per nesting level
            raise ParseError("expression nested too deeply", line_no) from None
    doc = _ParsedDoc(
        parser.basis, tuple(parser.states), tuple(parser.projs), tuple(parser.obs),
        parser.pre, parser.post,
    )
    doc.lines = parser.lines
    return doc


def _split_sign(c: complex) -> tuple[str, complex]:
    """Pull a leading minus out so the payload serializes without one."""
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        return "-", -c
    return "+", c


def _fmt_scalar(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag > 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _join_terms(parts: list[tuple[str, str]]) -> str:
    out = []
    for k, (sign, body) in enumerate(parts):
        if k == 0:
            out.append(body if sign == "+" else f"- {body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out)


def serialize(doc: ScenarioDoc) -> str:
    lines = []
    if doc.basis:
        lines.append("basis " + " ".join(doc.basis))
    for st in doc.states:
        parts = []
        for coeff, label in st.terms:
            sign, payload = _split_sign(complex(coeff))
            parts.append((sign, f"{_fmt_scalar(payload)} {label}"))
        keyword = " normalize" if st.normalize else ""
        lines.append(f"state {st.name}{keyword} = {_join_terms(parts)}")
    if doc.pre is not None:
        lines.append(f"pre {doc.pre}")
    if doc.post is not None:
        lines.append(f"post {doc.post}")
    for pj in doc.projs:
        if pj.kind == "ketbra":
            lines.append(f"proj {pj.name} = |{pj.args[0]}><{pj.args[0]}|")
        else:
            lines.append(f"proj {pj.name} = span({', '.join(pj.args)})")
    for ob in doc.obs:
        parts = []
        for lam, pname in ob.terms:
            sign, payload = _split_sign(complex(lam))
            parts.append((sign, f"{_fmt_scalar(payload)}*{pname}"))
        lines.append(f"obs {ob.name} = {_join_terms(parts)}")
    return "\n".join(lines) + "\n"


def to_scenario(doc: ScenarioDoc, name: str = "scenario") -> Scenario:
    """Resolve a document into a live Scenario (empty fixture set).

    Errors carry the line `doc.lines` records for the declaration at fault,
    so those of a hand-built document carry none.
    """
    if not doc.basis:
        raise ParseError("missing basis declaration")
    index = label_index(doc.basis)
    states: dict[str, State] = {}
    for st in doc.states:
        line = doc.lines.get(st.name)
        amps = [0j] * len(doc.basis)  # Python sums: one past a double is inf, not a warning
        for coeff, label in st.terms:
            if label not in index:
                raise ParseError(f"unknown basis label {label!r} in state {st.name!r}", line)
            amps[index[label]] += coeff
        try:
            vec = CVec(amps, doc.basis)
        except NotFinite:
            raise NormalizationError(
                f"state {st.name!r} sums a basis label's terms past a double", line
            ) from None
        norm = vec.norm()
        # a `normalize` state may have any scale, so only an exactly zero one is zero
        if norm <= (0.0 if st.normalize else ZERO_TOL):
            raise NormalizationError(f"state {st.name!r} has zero norm", line)
        if not st.normalize and not abs(norm - 1.0) <= DECLARED_NORM_TOL:
            raise NormalizationError(
                f"state {st.name!r} has norm {norm:.9g}; fix the amplitudes or "
                "declare it with 'normalize'",
                line,
            )
        states[st.name] = State(vec.unit(), st.name)

    def resolve_vector(label: str, line: Optional[int], context: str) -> CVec:
        if label in index:
            return CVec.basis_vector(label, doc.basis)
        if label in states:
            return states[label].vec
        raise ParseError(f"unknown label {label!r} in {context}", line)

    projs: dict[str, Projector] = {}
    for pj in doc.projs:
        if all(a in index for a in pj.args):  # basis labels only: identity columns
            projs[pj.name] = Projector.on_rows([index[a] for a in pj.args], doc.basis)
            continue
        line, context = doc.lines.get(pj.name), f"projector {pj.name!r}"
        vecs = [resolve_vector(a, line, context) for a in pj.args]
        projs[pj.name] = Projector.onto(vecs[0]) if pj.kind == "ketbra" else Projector.span(vecs)

    observables: dict[str, Observable] = {}
    for ob in doc.obs:
        for _, pname in ob.terms:
            if pname not in projs:
                raise ParseError(
                    f"unknown projector {pname!r} in observable {ob.name!r}",
                    doc.lines.get(ob.name),
                )
        try:
            lams, pnames = zip(*sorted(ob.terms, key=lambda t: t[0]))
            observables[ob.name] = Observable.from_projectors(lams, [projs[p] for p in pnames])
        except ValueError as exc:
            raise ParseError(
                f"observable {ob.name!r} is not a spectral decomposition: {exc}",
                doc.lines.get(ob.name),
            ) from None

    if doc.pre is None:
        raise ParseError("missing pre declaration")
    if doc.post is None:
        raise ParseError("missing post declaration")
    if doc.pre not in states:
        raise ParseError(f"pre names undeclared state {doc.pre!r}", doc.lines.get("pre"))
    if doc.post not in states:
        raise ParseError(f"post names undeclared state {doc.post!r}", doc.lines.get("post"))

    return Scenario(
        name=name,
        basis_labels=doc.basis,
        pre=states[doc.pre],
        post=states[doc.post],
        observables=observables,
        expected={},
        states=states,
    )

