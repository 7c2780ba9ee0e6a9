"""Bivariate integer polynomials and a small expression parser.

Coefficients are arbitrary-precision integers, so one polynomial object can
be reused across primes and precisions; reduction mod p^n happens only at
evaluation time.  The canonical string form (graded-lex term order, explicit
'*' and '^') round-trips through the parser.

Two evaluators, split by operand type.  `BiPoly.evaluate` takes Python ints
and sums the terms with three-argument `pow`.  `BiPoly.horner` takes
anything with `+`, `*` (and `%` when reducing); the package passes it numpy
arrays of points and BiPolys (exact composition).  A branch's truncated
series are not among them: `series` composes a polynomial with a branch in
the anchor's chart, with far fewer series products than a Horner in x over
a Horner in y.  On
Python ints Horner is the slower of the two: 3.3-8.3 us per call against
0.65-1.25 us for the term sum, on three critical-locus search curves and
their Jacobians mod 5^7 (2-core host, Python 3.11).  On arrays it is the
faster one: each step is one whole-array multiply-add, where a term sum
builds a power array per monomial.  Given x as a column and y as a row,
it evaluates a grid with the x steps on one value per row:
brute_points(y^2 - x^3 + x, p=3, m=6) takes 3.0-3.5 ms this way, against
30-34 ms when every step spanned the whole grid (2-core host, Python 3.11).
Integer arrays are reduced by floor division rather than `%`, and the brute
grid runs in int32 blocks of about 2^17 cells: the same call then takes
2.7-3.0 ms, against 3.3-3.7 ms in int64 with `%` (best of 7 x 20 calls,
2-core host, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = [
    "BiPoly",
    "MAX_EXPONENT",
    "PolySyntaxError",
    "parse_poly",
    "parse_univariate",
]

# Sanity cap: keeps pathological inputs like (x+y)^10^9 from exhausting memory.
MAX_EXPONENT = 512


class PolySyntaxError(ValueError):
    """Malformed polynomial text; `position` is the 1-based column, as printed."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (column {index + 1})")
        self.position = index + 1


class BiPoly:
    """Polynomial in x, y over Z, stored as a map (deg_x, deg_y) -> coeff.

    Nothing assigns or mutates `terms` after __init__, so each partial
    derivative is computed once and kept on the instance.
    """

    __slots__ = ("terms", "_partials")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i},{j})")
            c = int(c)
            if c:
                clean[(int(i), int(j))] = c
        self.terms = clean
        self._partials: dict[str, BiPoly] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BiPoly":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, int):
            return BiPoly.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent {k} exceeds cap {MAX_EXPONENT}")
        result = BiPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.constant(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def low_degree(self) -> int:
        """Least total degree of a nonzero term; -1 for zero."""
        if not self.terms:
            return -1
        return min(i + j for i, j in self.terms)

    def coefficient(self, i: int, j: int) -> int:
        return self.terms.get((i, j), 0)

    def uses_y(self) -> bool:
        return any(j > 0 for _, j in self.terms)

    # -- calculus and substitution ------------------------------------------

    def partial(self, var: str) -> "BiPoly":
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        got = self._partials.get(var)
        if got is None:
            out: dict[tuple[int, int], int] = {}
            for (i, j), c in self.terms.items():
                if var == "x" and i > 0:
                    out[(i - 1, j)] = out.get((i - 1, j), 0) + c * i
                elif var == "y" and j > 0:
                    out[(i, j - 1)] = out.get((i, j - 1), 0) + c * j
            got = self._partials[var] = BiPoly(out)
        return got

    def evaluate(self, x: int, y: int, modulus: int | None = None) -> int:
        """Exact integer value at Python ints, optionally reduced mod `modulus`."""
        total = 0
        if modulus is None:
            for (i, j), c in self.terms.items():
                total += c * x**i * y**j
            return total
        xm, ym = x % modulus, y % modulus
        for (i, j), c in self.terms.items():
            total = (total + c * pow(xm, i, modulus) * pow(ym, j, modulus)) % modulus
        return total

    def horner(self, x, y, modulus: int | None = None):
        """Value at non-scalar operands: Horner in y over Horner in x.

        Uses only `+`, `*` and, when `modulus` is given, `%`, so x and y may
        be numpy arrays of points or, with no modulus, polynomials:
        g.horner(x(s), y(s)) is the exact composition g(x(s), y(s)) as a
        BiPoly.  Other ring elements work too, but a branch's series are
        composed by `Parametrization.compose_poly`, in the anchor's chart.
        Arrays may have one shape or
        broadcast: x of shape (n, 1) and y of shape (1, q) evaluate the
        (n, q) grid, with each x-Horner step on n values only.  The result
        has the operands' broadcast shape even for a constant or zero
        polynomial, except that when f (mod `modulus`) lacks y, or x, it
        has the shape of x, or y, alone.  With a modulus, x, y and every
        coefficient are reduced first (coefficients may exceed int64), so
        each step computes at most (modulus - 1)^2 + modulus - 1: int32
        arrays stay exact for modulus^2 < 2^31, int64 arrays for
        modulus <= 2^31.  Integer arrays are reduced by floor division,
        r = acc // modulus; acc -= r * modulus, since numpy divides an
        array by a scalar about 4x faster than it takes `%`; Python ints
        and object arrays use `%`.
        """
        if modulus is not None:
            x, y = x % modulus, y % modulus
        rows: dict[int, dict[int, int]] = {}
        for (i, j), c in self.terms.items():
            rows.setdefault(j, {})[i] = c if modulus is None else c % modulus

        def step(acc, var, c):
            # acc * var + c; a zero Python-int acc or c costs no operand work,
            # and the in-place reduction acts on the fresh result
            if isinstance(acc, int) and acc == 0:
                return c
            acc = acc * var if isinstance(c, int) and c == 0 else acc * var + c
            if modulus is None:
                return acc
            if getattr(getattr(acc, "dtype", None), "kind", None) in ("i", "u"):
                r = acc // modulus
                r *= modulus
                acc -= r
            else:
                acc %= modulus
            return acc

        acc = 0
        for j in range(max(rows, default=0), -1, -1):
            row = rows.get(j, {})
            inner = 0
            for i in range(max(row, default=0), -1, -1):
                inner = step(inner, x, row.get(i, 0))
            acc = step(acc, y, inner)
        if isinstance(acc, int):  # a constant: give it the operands' shape
            acc = x * 0 + y * 0 + acc
        return acc

    def shift(self, a: int, b: int) -> "BiPoly":
        """f(x + a, y + b), exact over Z."""
        return self.horner(BiPoly.variable("x") + a, BiPoly.variable("y") + b)

    def scale_vars(self, cx: int, cy: int) -> "BiPoly":
        """f(cx * x, cy * y)."""
        return BiPoly(
            {(i, j): c * cx**i * cy**j for (i, j), c in self.terms.items()}
        )

    def divide_exact(self, d: int) -> "BiPoly":
        """Coefficient-wise division; raises ValueError when not exact."""
        out = {}
        for k, c in self.terms.items():
            if c % d:
                raise ValueError(f"coefficient {c} not divisible by {d}")
            out[k] = c // d
        return BiPoly(out)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # graded-lex with x > y, leading term first
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        pieces = []
        for idx, (i, j) in enumerate(keys):
            c = self.terms[(i, j)]
            sign = "-" if c < 0 else "+"
            mags = []
            if abs(c) != 1 or (i == 0 and j == 0):
                mags.append(str(abs(c)))
            if i:
                mags.append("x" if i == 1 else f"x^{i}")
            if j:
                mags.append("y" if j == 1 else f"y^{j}")
            body = "*".join(mags)
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({str(self)!r})"


# -- parser -----------------------------------------------------------------
#
# expr   := ['+'|'-'] term { ('+'|'-') term }
# term   := factor { '*' factor }
# factor := atom [ '^' INT ]
# atom   := INT | 'x' | 'y' | '(' expr ')'
#
# A sign is only allowed at the start of an expression (or right after an
# opening parenthesis), so doubled operators such as "y -- x" are rejected.


def _tokenize(text: str) -> Iterator[tuple[str, object, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            yield ("int", int(text[start:i]), start)
            continue
        if ch in "xy":
            yield ("var", ch, i)
            i += 1
            continue
        if ch in "+-*^()":
            yield (ch, ch, i)
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    yield ("end", None, n)


def _shown(tok) -> str:
    """A token as error messages name it."""
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
        return tok

    def parse(self) -> BiPoly:
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolySyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def expr(self) -> BiPoly:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        total = sign * self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            nxt = self.term()
            total = total + nxt if op == "+" else total - nxt
        return total

    def term(self) -> BiPoly:
        prod = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            prod = prod * self.factor()
        return prod

    def factor(self) -> BiPoly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            exponent = tok[1]
            if exponent > MAX_EXPONENT:
                raise PolySyntaxError(
                    f"exponent {exponent} exceeds cap {MAX_EXPONENT}", tok[2]
                )
            base = base**exponent
        return base

    def atom(self) -> BiPoly:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "int":
            return BiPoly.constant(value)
        if kind == "var":
            return BiPoly.variable(value)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise PolySyntaxError(f"unexpected {_shown(tok)}", pos)


def parse_poly(text: str) -> BiPoly:
    """Parse integer-coefficient polynomial text in x and y."""
    return _Parser(text).parse()


def parse_univariate(text: str) -> BiPoly:
    """Parse a polynomial in x alone; any use of y is a syntax error."""
    poly = _Parser(text).parse()
    if poly.uses_y():
        raise PolySyntaxError("expected a polynomial in x only", text.find("y"))
    return poly
