"""Tiny arithmetic expression language for drift components.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := NUMBER | IDENT | '-' factor | FUNC '(' expr ')' | '(' expr ')'
    IDENT  := ('x' | 'y') DIGITS          # 1-based coordinate index
    FUNC   := 'sin' | 'cos' | 'tanh' | 'exp'

Numbers are decimals with an optional exponent.  The grammar is kept small on
purpose: every production is Lipschitz-auditable, which is what the model
validation layer relies on.

Evaluation is compiled, as SymPy's ``lambdify`` does: the parser emits numpy
source text while it reads, and ``compile_components`` turns a drift's
component texts into one function once, so a drift call runs the numpy
operations alone, in the order the parser read them.  Coordinates are read
off the last axis of the ``x`` and ``y`` arrays, so one compiled drift serves
single states ``(n,)`` and whole path batches ``(..., n)`` alike.  The one
compiled function adds the columns into a buffer: the stepping kernel's
drift buffer, or for a drift call a fresh one filled with -0.0.
"""

from __future__ import annotations

import re

import numpy as np


class DriftExprError(ValueError):
    """Base class for expression-language failures."""


class DriftSyntaxError(DriftExprError):
    """Malformed source text; carries the 0-based ``position`` of the fault."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DriftNameError(DriftExprError):
    """Identifier that is neither a coordinate nor a known function."""


class DriftArityError(DriftExprError):
    """Coordinate index outside 1..n."""


# deepest parenthesis nesting the parser reads: each level costs five Python
# frames of its recursion, and Python's own compiler refuses 200 nested
# brackets in the generated source
MAX_NESTING = 150

_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/()])
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"^([xy])(\d+)$")


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DriftSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive-descent parser that emits numpy source text as it reads.

    A number becomes a name bound to its value as a numpy float in
    ``consts`` (shared by the components of one drift): a literal such as
    ``1e999`` is inf, which has no literal form, and numpy division by a
    zero constant gives inf or NaN where Python's raises.  ``xK`` / ``yK``
    becomes the name ``xK`` / ``yK`` (K without leading zeros), which the
    compiled function binds to coordinate K-1 of ``x`` / ``y``, and is
    listed in ``reads``, in textual order.  Operators, parentheses and
    function calls are copied: Python's precedence and left associativity
    are the grammar's, so the operations run in the parsed order.  Only text
    built here from matched tokens reaches the generated source.
    """

    def __init__(self, source, consts):
        self.tokens = _tokenize(source)
        depth = 0
        for _, text, pos in self.tokens:
            depth += (text == "(") - (text == ")")
            if depth > MAX_NESTING:
                raise DriftSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", pos)
        self.i = 0
        self.consts = consts
        self.reads = []

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise DriftSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        try:
            code = self.expr()
        except RecursionError as err:
            # the caller's own stack depth plus five frames per nesting level
            raise DriftSyntaxError("expression nested too deep for the parser",
                                   self.peek()[2]) from err
        kind, text, pos = self.peek()
        if kind != "end":
            raise DriftSyntaxError(f"trailing input {text!r}", pos)
        return code

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def chain(self, ops, operand):
        """Operands joined by left-associative operators in ``ops``."""
        code = operand()
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in ops:
                return code
            self.advance()
            code = f"{code} {op} {operand()}"

    def factor(self):
        kind, text, pos = self.advance()
        if kind == "num":
            self.consts.append(np.float64(text))
            return f"c{len(self.consts) - 1}"
        if kind == "op" and text == "-":
            # a run of signs is read in a loop, so it does not deepen the recursion
            signs = "-"
            while self.peek()[:2] == ("op", "-"):
                self.advance()
                signs += "-"
            return signs + self.factor()
        if kind == "op" and text == "(":
            code = self.expr()
            self.expect_op(")")
            return f"({code})"
        if kind == "name":
            ident = _IDENT_RE.match(text)
            if ident:
                base, index = ident.group(1), int(ident.group(2))
                self.reads.append((base, index))
                return f"{base}{index}"
            if text in _FUNCS:
                self.expect_op("(")
                code = self.expr()
                self.expect_op(")")
                return f"{text}({code})"
            raise DriftNameError(f"unknown identifier {text!r} (at position {pos})")
        raise DriftSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse_expression(source):
    """Parse one component expression into numpy source text in the
    coordinate names ``x1``, ``y1``, ... and the constants ``c0``, ``c1``, ..."""
    return _Parser(source, []).parse()


def compile_components(sources, n):
    """Parse component expressions and return a vectorized (x, y) -> (..., n) map
    and whether it reads ``y``.

    Raises DriftSyntaxError / DriftNameError / DriftArityError on bad input,
    DriftSyntaxError also for parentheses nested deeper than ``MAX_NESTING``,
    for nesting deeper than the caller's free stack lets the parser read, and
    for expressions too long or deep for Python's compiler.
    """
    evaluate, _, depends_y = _compile(sources, n)
    return evaluate, depends_y


def _compile(sources, n):
    """``compile_components`` plus the in-place form ``add(d, x, y)`` it is
    built on, which adds each compiled column k into ``d[..., k]`` of a
    float buffer d, for x and y shaped as d.  A single state (n,) is read
    and written element by element, as numpy scalars: a ufunc on a
    one-element array view costs several times a scalar operation, and the
    values are the same."""
    consts, codes, reads = [], [], []
    for src in sources:
        parser = _Parser(src, consts)
        codes.append(parser.parse())
        for base, index in parser.reads:
            if not 1 <= index <= n:
                raise DriftArityError(
                    f"coordinate {base}{index} out of range for dimension n={n}")
        reads += parser.reads
    if len(codes) != n:
        raise DriftArityError(f"{len(codes)} component expressions for dimension n={n}")
    namespace = {"__builtins__": {}, **_FUNCS, **{f"c{i}": c for i, c in enumerate(consts)}}

    # each coordinate is bound once: a view of the last axis, or for a
    # single state (n,) a numpy scalar
    coords = sorted(set(reads))
    batch = [f"{base}{k} = {base}[..., {k - 1}]" for base, k in coords]
    single = [f"{base}{k} = {base}[{k - 1}]" for base, k in coords]
    lines = (["def add(d, x, y):", "    if d.ndim == 1:"]
             + [f"        {line}" for line in single]
             + [f"        d[{k}] += {code}" for k, code in enumerate(codes)]
             + ["    else:"] + [f"        {line}" for line in batch]
             + [f"        col = d[..., {k}]\n        col += {code}"
                for k, code in enumerate(codes)])
    source = "\n".join(lines)
    try:
        exec(source, namespace)
    except (RecursionError, SyntaxError, MemoryError) as err:
        # Python's compiler refuses the generated source as too deep or too long
        raise DriftSyntaxError(f"expression too large to compile ({type(err).__name__})",
                               0) from err
    add = namespace["add"]
    if any("/" in code for code in codes):
        add = np.errstate(divide="ignore", invalid="ignore")(add)

    def evaluate(x, y):
        # -0.0 is the additive identity of every float, signed zeros and NaN
        # included, so adding into it gives each column's own bits
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[:-1] + (n,), -0.0)
        add(out, x, np.asarray(y, dtype=float))
        return out

    return evaluate, add, any(base == "y" for base, _ in reads)
