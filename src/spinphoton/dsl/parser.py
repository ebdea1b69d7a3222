"""Parser for the line-oriented circuit description language.

Grammar (one statement per line; blanks are spaces and tabs; ``#`` starts a
comment; blank lines and CRLF line endings are fine)::

    component <name> <kind>[(p=v, ...)] in=[P, ...] out=[P, ...]
    input photon <k> port <P> state <R|L|H|V>
    input photons <j> <k> port <P> state <PsiPlus|PsiMinus|PhiPlus|PhiMinus>
    input spin state <Up|Down|Plus|Minus>
    measure photon <k> pol basis <RL|HV>
    measure photon <k> port
    measure spin basis <UpDown|PlusMinus>

Angles accept ``pi``, ``pi/<n>``, an optional leading ``-``, or a decimal.

Errors are :class:`ParseError` with 1-based line/column and a kind of
``Lex`` (character level), ``Syntax`` (token level), or ``Semantic`` (names
and references).  Wiring arity and topology problems are not caught here —
the compiler reports those as :class:`~spinphoton.dsl.compiler.CircuitError`.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from . import ast

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """A rejected circuit description, locating the first offending token."""

    def __init__(self, kind: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {kind}: {message}")
        self.kind = kind
        self.reason = message
        self.line = line
        self.col = col


class _Token(NamedTuple):
    text: str
    kind: str  # ident | number | punct | end
    line: int
    col: int


#: One token per match, its kind the group's name; blanks (space and tab)
#: match nothing and are skipped, and any other character is a Lex error.
_TOKEN = re.compile(
    r"(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[()\[\],=/*-])"
    r"|(?P<comment>#)"
    r"|(?P<bad>[^ \t])"
)


def _tokenize(line: str, line_no: int) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError("Lex", f"unexpected character {m[0]!r}", line_no, m.start() + 1)
        out.append(_Token(m[0], kind, line_no, m.start() + 1))
    out.append(_Token("", "end", line_no, len(line.rstrip()) + 1 if line.strip() else 1))
    return out


class _Line:
    """Cursor over one statement's tokens."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None, kind: str = "Syntax"):
        tok = tok or self.peek()
        raise ParseError(kind, message, tok.line, tok.col)

    def ident(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected {what}", tok)
        return tok

    def keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            self.error(f"expected {word!r}", tok)
        return tok

    def punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            self.error(f"expected {ch!r}", tok)
        return tok

    def integer(self, what: str) -> tuple[int, _Token]:
        tok = self.next()
        if tok.kind != "number" or not tok.text.isdigit():
            self.error(f"expected {what} (an integer)", tok)
        return int(tok.text), tok

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            self.error("unexpected trailing input", tok)


def _parse_value(cur: _Line) -> float:
    sign = 1.0
    tok = cur.peek()
    if tok.kind == "punct" and tok.text == "-":
        sign = -1.0
        cur.next()
        tok = cur.peek()
    if tok.kind == "ident" and tok.text == "pi":
        cur.next()
        value, text = math.pi, "pi"
        if cur.peek().kind == "punct" and cur.peek().text == "/":
            cur.next()
            tok = cur.next()
            if tok.kind != "number":
                cur.error("expected a number after 'pi/'", tok)
            divisor = float(tok.text)
            value = value / divisor if divisor else math.inf
            text = f"pi/{tok.text}"
    elif tok.kind == "number":
        cur.next()
        value, text = float(tok.text), tok.text
    else:
        cur.error("expected a number or 'pi'", tok)
    # reported at the number that makes the value overflow
    if not math.isfinite(value):
        cur.error(f"{text} is not a finite number", tok, kind="Semantic")
    return sign * value


def _parse_port_list(cur: _Line) -> tuple[str, ...]:
    cur.punct("[")
    ports = [cur.ident("a port name").text]
    while cur.peek().kind == "punct" and cur.peek().text == ",":
        cur.next()
        ports.append(cur.ident("a port name").text)
    cur.punct("]")
    return tuple(ports)


def _parse_component(cur: _Line, known_names: set[str]) -> ast.Component:
    head = cur.tokens[0]
    name_tok = cur.ident("a component name")
    if name_tok.text in known_names:
        cur.error(f"duplicate component name {name_tok.text!r}", name_tok, kind="Semantic")
    kind_tok = cur.ident("a component kind")
    if kind_tok.text not in ast.KIND_PARAMS:
        cur.error(
            f"unknown component kind {kind_tok.text!r}", kind_tok, kind="Semantic"
        )
    allowed = ast.KIND_PARAMS[kind_tok.text]
    params: list[ast.Param] = []
    if cur.peek().kind == "punct" and cur.peek().text == "(":
        cur.next()
        while True:
            p_name = cur.ident("a parameter name")
            if p_name.text not in allowed:
                cur.error(
                    f"component kind {kind_tok.text!r} has no parameter {p_name.text!r}",
                    p_name,
                    kind="Semantic",
                )
            if any(p.name == p_name.text for p in params):
                cur.error(f"duplicate parameter {p_name.text!r}", p_name, kind="Semantic")
            cur.punct("=")
            params.append(ast.Param(p_name.text, _parse_value(cur)))
            tok = cur.next()
            if tok.kind == "punct" and tok.text == ")":
                break
            if not (tok.kind == "punct" and tok.text == ","):
                cur.error("expected ',' or ')'", tok)
    cur.keyword("in")
    cur.punct("=")
    inputs = _parse_port_list(cur)
    cur.keyword("out")
    cur.punct("=")
    outputs = _parse_port_list(cur)
    cur.done()
    return ast.Component(
        name=name_tok.text,
        kind=kind_tok.text,
        params=tuple(params),
        inputs=inputs,
        outputs=outputs,
        pos=ast.Position(head.line, head.col),
    )


def _parse_input(
    cur: _Line, photon_ids: set[int], have_spin: bool
) -> ast.PhotonInput | ast.SpinInput:
    head = cur.tokens[0]
    what = cur.ident("'photon', 'photons', or 'spin'")
    if what.text == "spin":
        cur.keyword("state")
        state = cur.ident("a spin state")
        if state.text not in ast.SPIN_STATES:
            cur.error(f"unknown spin state {state.text!r}", state, kind="Semantic")
        if have_spin:
            cur.error("spin input already declared", what, kind="Semantic")
        cur.done()
        return ast.SpinInput(state=state.text, pos=ast.Position(head.line, head.col))
    if what.text in ("photon", "photons"):
        count = 1 if what.text == "photon" else 2
        ids: list[int] = []
        for _ in range(count):
            pid, tok = cur.integer("a photon id")
            if pid in photon_ids or pid in ids:
                cur.error(f"photon {pid} already declared", tok, kind="Semantic")
            ids.append(pid)
        cur.keyword("port")
        port = cur.ident("a port name")
        cur.keyword("state")
        state = cur.ident("a state name")
        valid = ast.PHOTON_STATES if count == 1 else ast.PAIR_STATES
        if state.text not in valid:
            cur.error(
                f"unknown {'photon' if count == 1 else 'photon-pair'} state {state.text!r}",
                state,
                kind="Semantic",
            )
        cur.done()
        return ast.PhotonInput(
            photons=tuple(ids),
            port=port.text,
            state=state.text,
            pos=ast.Position(head.line, head.col),
        )
    cur.error("expected 'photon', 'photons', or 'spin'", what)
    raise AssertionError  # unreachable


def _parse_measure(cur: _Line) -> ast.Measure:
    head = cur.tokens[0]
    what = cur.ident("'photon' or 'spin'")
    pos = ast.Position(head.line, head.col)
    if what.text == "spin":
        cur.keyword("basis")
        basis = cur.ident("a spin basis")
        if basis.text not in ast.SPIN_BASES:
            cur.error(f"unknown spin basis {basis.text!r}", basis, kind="Semantic")
        cur.done()
        return ast.SpinMeasure(basis=basis.text, pos=pos)
    if what.text == "photon":
        pid, _ = cur.integer("a photon id")
        which = cur.ident("'pol' or 'port'")
        if which.text == "port":
            cur.done()
            return ast.PortMeasure(photon=pid, pos=pos)
        if which.text == "pol":
            cur.keyword("basis")
            basis = cur.ident("a polarization basis")
            if basis.text not in ast.POL_BASES:
                cur.error(
                    f"unknown polarization basis {basis.text!r}", basis, kind="Semantic"
                )
            cur.done()
            return ast.PolMeasure(photon=pid, basis=basis.text, pos=pos)
        cur.error("expected 'pol' or 'port'", which)
    cur.error("expected 'photon' or 'spin'", what)
    raise AssertionError  # unreachable


def parse(text: str) -> ast.Circuit:
    """Parse a circuit description into its AST.

    Raises :class:`ParseError` on the first problem; an input with no
    statements at all is a Syntax error at 1:1.
    """
    components: list[ast.Component] = []
    inputs: list[ast.PhotonInput | ast.SpinInput] = []
    measures: list[ast.Measure] = []
    names: set[str] = set()
    photon_ids: set[int] = set()
    measured_pol: set[int] = set()
    measured_port: set[int] = set()
    have_spin_input = False
    have_spin_measure = False

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        tokens = _tokenize(line, line_no)
        if tokens[0].kind == "end":
            continue
        cur = _Line(tokens)
        head = cur.next()
        if head.kind != "ident":
            cur.error("expected 'component', 'input', or 'measure'", head)
        if head.text == "component":
            comp = _parse_component(cur, names)
            names.add(comp.name)
            components.append(comp)
        elif head.text == "input":
            inp = _parse_input(cur, photon_ids, have_spin_input)
            if isinstance(inp, ast.SpinInput):
                have_spin_input = True
            else:
                photon_ids.update(inp.photons)
            inputs.append(inp)
        elif head.text == "measure":
            m = _parse_measure(cur)
            if isinstance(m, ast.SpinMeasure):
                if have_spin_measure:
                    cur.error("spin measured twice", cur.tokens[0], kind="Semantic")
                have_spin_measure = True
            elif isinstance(m, ast.PolMeasure):
                if m.photon in measured_pol:
                    cur.error(
                        f"photon {m.photon} polarization measured twice",
                        cur.tokens[0],
                        kind="Semantic",
                    )
                measured_pol.add(m.photon)
            else:
                if m.photon in measured_port:
                    cur.error(
                        f"photon {m.photon} port measured twice",
                        cur.tokens[0],
                        kind="Semantic",
                    )
                measured_port.add(m.photon)
            measures.append(m)
        else:
            cur.error("expected 'component', 'input', or 'measure'", head)

    if not (components or inputs or measures):
        raise ParseError("Syntax", "empty circuit", 1, 1)
    return ast.Circuit(
        components=tuple(components), inputs=tuple(inputs), measures=tuple(measures)
    )
