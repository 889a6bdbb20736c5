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

import numpy as np

from .errors import NormalizationError, NotHermitian, ParseError
from .linalg import (
    DECLARED_NORM_TOL, EXACT_TOL, REAL_TOL, ZERO_TOL, CMat, CVec, label_index,
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
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # complex | num | word | sqrt_sym | sym
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int) -> list[Token]:
    text = text.replace("⟨", "<").replace("⟩", ">")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup is not None:
            tokens.append(Token(m.lastgroup, m.group(), line_no, m.start() + 1))
        pos = m.end()
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
    the imaginary sign is flipped here to cancel it.
    """
    body = tok.text[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part = float(body[:k])
            im_part = float(body[k + 1 :])
            if (body[k] == "-") != minus_against:
                im_part = -im_part
            return complex(re_part, im_part)
    return complex(0.0, float(body))


def _checked_sqrt(value: complex, tok: Token) -> complex:
    if abs(value.imag) > EXACT_TOL or value.real < 0:
        raise ParseError("sqrt argument must be a nonnegative real", tok.line, tok.col)
    return complex(math.sqrt(value.real))


def _scalar_expr(cur: _Cursor) -> complex:
    value = _scalar_term(cur)
    while (t := cur.peek()) is not None and t.kind == "sym" and t.text in "+-":
        cur.next()
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
    t = cur.peek()
    if t is not None and t.kind == "sym" and t.text == "-":
        cur.next()
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
        t = cur.peek()
        if t is not None and t.kind == "sym" and t.text == "(":
            cur.next()
            inner = _scalar_expr(cur)
            cur.expect_sym(")")
        else:
            inner = _scalar_atom(cur)
        return _checked_sqrt(inner, tok)
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
    sign = 1.0
    t = cur.peek()
    if t is not None and t.kind == "sym" and t.text in "+-":
        cur.next()
        sign = -1.0 if t.text == "-" else 1.0
    while True:
        coeff, name_tok = parse_term(cur)
        terms.append((sign * coeff, name_tok))
        if cur.at_end():
            return terms
        t = cur.next()
        if t.kind == "sym" and t.text in "+-":
            sign = -1.0 if t.text == "-" else 1.0
        else:
            raise ParseError(
                f"expected '+' or '-' between terms, got {t.text!r}", t.line, t.col
            )


def _finite_coefficient(cur: _Cursor) -> complex:
    """A term's scalar; one that overflows is an error at the term's first token."""
    first = cur.peek()
    coeff = _scalar_term(cur)
    if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
        raise ParseError(f"coefficient {coeff!r} is not finite", first.line, first.col)
    return coeff


def _parse_state_term(cur: _Cursor) -> tuple[complex, Token]:
    t = cur.peek()
    if t is not None and t.kind == "word" and t.text != "sqrt":
        return complex(1.0), cur.next()
    coeff = _finite_coefficient(cur)
    t = cur.peek()
    if t is not None and t.kind == "sym" and t.text == "*":
        cur.next()
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
            normalize = False
            t = cur.peek()
            if t is not None and t.kind == "word" and t.text == "normalize":
                cur.next()
                normalize = True
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
            decl_terms = []
            for coeff, tok in terms:
                if abs(coeff.imag) > REAL_TOL:
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
            while (t := cur.peek()) is not None and t.kind == "sym" and t.text == ",":
                cur.next()
                args.append(cur.expect_word().text)
            cur.expect_sym(")")
            return "span", tuple(args)
        raise ParseError(
            f"expected '|label><label|' or 'span(...)', got {tok.text!r}",
            tok.line,
            tok.col,
        )


def parse(text: str) -> ScenarioDoc:
    parser = _Parser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        parser.parse_line(_Cursor(tokens, line_no, len(line)))
    doc = _ParsedDoc(
        parser.basis, tuple(parser.states), tuple(parser.projs), tuple(parser.obs),
        parser.pre, parser.post,
    )
    doc.lines = parser.lines
    return doc


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _split_sign(c: complex) -> tuple[str, complex]:
    """Pull a leading minus out so the payload serializes without one."""
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        return "-", -c
    return "+", c


def _fmt_scalar(c: complex) -> str:
    if c.imag == 0:
        return _fmt_float(c.real)
    if c.real == 0:
        return f"{_fmt_float(c.imag)}i"
    sign = "+" if c.imag > 0 else "-"
    return f"{_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i"


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
            sign, payload = _split_sign(coeff)
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
        amps = np.zeros(len(doc.basis), dtype=complex)
        for coeff, label in st.terms:
            if label not in index:
                raise ParseError(f"unknown basis label {label!r} in state {st.name!r}", line)
            amps[index[label]] += coeff
        vec = CVec(amps, doc.basis)
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
            return CVec.basis_vector(label, doc.basis, index)
        if label in states:
            return states[label].vec
        raise ParseError(f"unknown label {label!r} in {context}", line)

    projs: dict[str, Projector] = {}
    for pj in doc.projs:
        line, context = doc.lines.get(pj.name), f"projector {pj.name!r}"
        vecs = [resolve_vector(a, line, context) for a in pj.args]
        projs[pj.name] = Projector.onto(vecs[0]) if pj.kind == "ketbra" else Projector.span(vecs)

    observables: dict[str, Observable] = {}
    for ob in doc.obs:
        pairs = []
        for lam, pname in ob.terms:
            if pname not in projs:
                raise ParseError(
                    f"unknown projector {pname!r} in observable {ob.name!r}",
                    doc.lines.get(ob.name),
                )
            pairs.append((lam, projs[pname]))
        pairs.sort(key=lambda p: p[0])
        # V diag(lambda) V^dagger, with V the projectors' columns side by side
        v = np.hstack([p.q for _, p in pairs])
        lams = np.concatenate([np.full(p.rank, lam) for lam, p in pairs])
        mat = CMat((v * lams) @ v.conj().T, doc.basis)
        try:
            observables[ob.name] = Observable(
                mat, tuple(lam for lam, _ in pairs), tuple(p for _, p in pairs)
            )
        except (ValueError, NotHermitian) as exc:
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


def doc_from_scenario(sc: Scenario) -> ScenarioDoc:
    """Express a Scenario in the text format.

    Observables must have basis-diagonal spectral projectors (all built-ins
    do); anything else has no span() spelling and is rejected.
    """
    labels = sc.basis_labels

    def state_terms(state: State) -> tuple[tuple[complex, str], ...]:
        return tuple(
            (complex(a), lab)
            for a, lab in zip(state.vec.amps, labels)
            if a != 0
        )

    pre_name = sc.pre.label or "pre"
    post_name = sc.post.label or "post"
    named = [(pre_name, sc.pre), (post_name, sc.post), *sc.states.items()]
    state_decls = []
    seen = set()
    for name, state in named:
        if name in seen:
            continue
        seen.add(name)
        state_decls.append(StateDecl(name, state_terms(state)))

    proj_decls = []
    obs_decls = []
    for oname, obs in sc.observables.items():
        terms = []
        for k, (lam, proj) in enumerate(zip(obs.eigenvalues, obs.projectors)):
            ones = np.abs(np.diag(proj.mat.entries) - 1.0) <= EXACT_TOL
            if np.max(np.abs(proj.mat.entries - np.diag(ones))) > EXACT_TOL:
                raise ValueError(
                    f"observable {oname!r} has a non-diagonal spectral projector; "
                    "cannot express it as span() of basis labels"
                )
            members = tuple(lab for lab, one in zip(labels, ones) if one)
            pname = f"P_{oname}_{k}"
            proj_decls.append(ProjDecl(pname, "span", members))
            terms.append((float(lam), pname))
        obs_decls.append(ObsDecl(oname, tuple(terms)))

    return ScenarioDoc(
        basis=labels,
        states=tuple(state_decls),
        projs=tuple(proj_decls),
        obs=tuple(obs_decls),
        pre=pre_name,
        post=post_name,
    )
