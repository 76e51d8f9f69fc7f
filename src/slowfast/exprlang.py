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

Evaluation is compiled, as SymPy's ``lambdify`` does.  Each component's
tokens become numpy source text, which Python's own parser reads under a
whitelist of the nodes the grammar produces (the grammar's precedence and
associativity are Python's), and a drift's component texts compile into
one function once (``_compile``), so a drift call runs the numpy
operations alone, in the order the parser read them.  Coordinates are read
off the last axis of the ``x`` and ``y`` arrays, so one compiled drift serves
single states ``(n,)`` and whole path batches ``(..., n)`` alike.  The one
compiled function adds the columns into a buffer: the stepping kernel's
drift buffer, or for a drift call the fresh buffer of ``model._value_into``,
which gives a drift's value from its in-place form.
"""

from __future__ import annotations

import ast
import bisect
import itertools
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


# deepest parenthesis nesting read: Python's tokenizer refuses 200 nested
# brackets in the generated source
MAX_NESTING = 150

_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/()])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"^([xy])(\d+)$")

# the nodes of the grammar's trees besides calls, unary operations and names
_NODES = (ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.Load)


def _tokenize(source):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise DriftSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens + [("end", "", len(source))]


def _translate(source, consts):
    """Numpy source text of one component expression, and the coordinates
    it reads as (base, index) pairs in textual order.

    A number becomes a name bound to its value as a numpy float in
    ``consts`` (shared by the components of one drift): a literal such as
    ``1e999`` is inf, which has no literal form, and numpy division by a
    zero constant gives inf or NaN where Python's raises.  ``xK`` / ``yK``
    becomes the name ``xK`` / ``yK`` (K without leading zeros), which the
    compiled function binds to coordinate K-1 of ``x`` / ``y``.  Python's
    parser reads the words joined with spaces (its precedence and left
    associativity are the grammar's) and every node the grammar cannot
    produce is refused, so only matched tokens reach the generated source.
    """
    tokens = _tokenize(source)
    depth = 0
    for _, text, pos in tokens:
        depth += (text == "(") - (text == ")")
        if depth > MAX_NESTING:
            raise DriftSyntaxError(f"parentheses nested deeper than {MAX_NESTING} levels", pos)
    words, reads = [], []
    for kind, text, pos in tokens[:-1]:
        if kind == "num":
            consts.append(np.float64(text))
            text = f"c{len(consts) - 1}"
        elif kind == "name" and _IDENT_RE.match(text):
            reads.append((text[0], int(text[1:])))
            text = "%s%d" % reads[-1]
        elif kind == "name" and text not in _FUNCS:
            raise DriftNameError(f"unknown identifier {text!r} (at position {pos})")
        words.append(text)
    code = " ".join(words)
    # column in ``code`` at which each token starts, the end at len(code) + 1
    starts = list(itertools.accumulate((len(w) + 1 for w in words), initial=0))

    def token_at(column):
        return tokens[bisect.bisect_right(starts, column) - 1]

    try:
        tree = ast.parse(code, mode="eval")
    except SyntaxError as err:
        # Python gives offset 0 for a fault at the end of the input, and
        # column -1 then maps to the end token
        raise DriftSyntaxError(err.msg, token_at((err.offset or 0) - 1)[2]) from None
    except (RecursionError, MemoryError) as err:
        raise DriftSyntaxError("expression nested too deep for Python's parser", 0) from err
    callees = set()
    for node in ast.walk(tree.body):
        column = getattr(node, "col_offset", 0)
        if isinstance(node, ast.Call):
            # a function name on one argument; other arguments are refused below
            ok = (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                  and len(node.args) == 1)
            callees.add(node.func)
            column = node.func.end_col_offset + 1
        elif isinstance(node, ast.UnaryOp):
            ok = isinstance(node.op, ast.USub)
        elif isinstance(node, ast.Name):
            ok = node.id not in _FUNCS or node in callees
        else:
            ok = isinstance(node, _NODES)
        if not ok:
            _, text, pos = token_at(column)
            raise DriftSyntaxError(f"unexpected {text!r}", pos)
    return code, reads


def _compile(sources, n):
    """The in-place form ``add(d, x, y)`` of component expressions, which
    adds column k into ``d[..., k]`` of a float buffer d shaped as x and y,
    and whether they read ``y``.  A single state (n,) is read and written
    element by element, as numpy scalars: a ufunc on a one-element view
    costs several times a scalar operation, and the values are the same.

    Raises DriftSyntaxError, DriftNameError or DriftArityError on bad input;
    DriftSyntaxError also for nesting deeper than ``MAX_NESTING`` or than
    Python's parser can read, and for code too large for its compiler.
    """
    consts, codes, reads = [], [], []
    for src in sources:
        code, src_reads = _translate(src, consts)
        codes.append(code)
        for base, index in src_reads:
            if not 1 <= index <= n:
                raise DriftArityError(
                    f"coordinate {base}{index} out of range for dimension n={n}")
        reads += src_reads
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
    return add, any(base == "y" for base, _ in reads)
