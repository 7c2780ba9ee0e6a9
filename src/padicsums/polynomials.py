"""Bivariate integer polynomials and a small expression parser.

Coefficients are arbitrary-precision integers, so one polynomial object can
be reused across primes and precisions; reduction mod p^n happens only at
evaluation time.  The canonical string form (graded-lex term order, explicit
'*' and '^') round-trips through the parser.

Two evaluators, split by operand type.  `BiPoly.evaluate` takes Python ints
and sums the terms with three-argument `pow`.  `BiPoly.horner` takes
anything with `+`, `*` (and `%`, `//` when reducing); the package passes it
numpy arrays of points and BiPolys (exact composition).  A branch's
truncated series are not among them: `series` composes a polynomial with a
branch in the anchor's chart, with far fewer series products than a Horner
in x over a Horner in y.  Horner's rows of coefficients are built once per
polynomial and kept on the instance beside its partials; each coefficient
is reduced as it is read, a cheap Python-int `%`, so one row set serves
every modulus.

The reduction rule: with a modulus, x, y and the coefficients are reduced
first, and an integer array accumulator carries an exact Python-int bound
on its entries.  It is reduced only when the next multiply-add could leave
its dtype, and once at the end.  At the lift's moduli (7^3, 5^4, 3^5) a
cubic then needs about one reduction instead of one per step; near 2^31 in
int64 every step still reduces.  Object arrays and Python ints are reduced
at every step.  A cubic on 3 points takes 10.8 us mod 7^3 and 5^4, against
19.1-19.3 us when every step reduced and the rows were rebuilt per call,
and 18.8 us against 19.9 us mod 5^12 (best of 7 x 5000 calls, 2-core host,
Python 3.11, numpy 2.4).  On Python ints Horner is the slower of the two
evaluators: 1.8-5.0 us per call against 0.38-0.88 us for the term sum, on
three critical-locus search curves and their Jacobians mod 5^7 (same host).
On arrays it is the faster one: each step is one whole-array multiply-add,
where a term sum builds a power array per monomial.  Given x as a column
and y as a row, it evaluates a grid with the x steps on one value per row:
brute_points(y^2 - x^3 + x, p=3, m=6) took 3.0-3.5 ms this way, against
30-34 ms when every step spanned the whole grid, before the residue sieve
of the brute scan (2-core host, Python 3.11); with the sieve, int32 blocks
and the reduction rule it takes 0.67 ms (best of 7 x 20 calls, same host).

A private gcd over Z[x, y], `_gcd`, runs a primitive pseudo-remainder
sequence in y over Z[x], with contents taken by the same routine in x; the
invariants module uses it to find components that f shares with its
partials or with a Jacobian, and `_squarefree`, an exact division by the
same routines, to name each repeated factor once.
"""

from __future__ import annotations

import math
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


def _int_limit(operand) -> int:
    """The largest value of an integer array's dtype; 0 for any other operand."""
    dtype = getattr(operand, "dtype", None)
    if dtype is None or dtype.kind not in "iu":
        return 0
    return 2 ** (8 * dtype.itemsize - (dtype.kind == "i")) - 1


class PolySyntaxError(ValueError):
    """Malformed polynomial text; `position` is the 1-based column, as printed."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (column {index + 1})")
        self.position = index + 1


class BiPoly:
    """Polynomial in x, y over Z, stored as a map (deg_x, deg_y) -> coeff.

    Nothing assigns or mutates `terms` after __init__, so each partial
    derivative, the coefficient rows of `horner` and, per prime p, the lift
    tables mod p (in `_residues`, set by `counting._residue_tables`: the
    zeros mod p with their solved coordinates and -1/f_s mod p, in read-only
    arrays) are computed once and kept on the instance.
    """

    __slots__ = ("terms", "_partials", "_rows", "_residues")

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
        self._rows: tuple[tuple[int, ...], ...] | None = None

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

        Uses only `+`, `*` and, when `modulus` is given, `%` and `//`, so x
        and y may be numpy arrays of points or, with no modulus,
        polynomials: g.horner(x(s), y(s)) is the exact composition
        g(x(s), y(s)) as a BiPoly.  Other ring elements work too, but a
        branch's series are composed by `Parametrization.compose_poly`, in
        the anchor's chart.  Arrays may have one shape or broadcast: x of
        shape (n, 1) and y of shape (1, q) evaluate the (n, q) grid, with
        each x-Horner step on n values only.  The result has the operands'
        broadcast shape even for a constant or zero polynomial, except that
        when f (mod `modulus`) lacks y, or x, it has the shape of x, or y,
        alone.

        With a modulus, x, y and every coefficient are reduced first
        (coefficients may exceed int64).  An integer array accumulator then
        carries an exact Python-int bound on its entries and is reduced
        only when the next multiply-add could leave its dtype, and once at
        the end; the dtype is the narrowest of the array operands', so
        int32 arrays stay exact for modulus^2 < 2^31 and int64 arrays for
        modulus <= 2^31.  Integer arrays are reduced by floor division,
        r = acc // modulus; acc -= r * modulus, since numpy divides an
        array by a scalar about 4x faster than it takes `%`.  Object arrays
        and Python ints are reduced by `%` at every step.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = self._horner_rows()
        limit = None  # the largest value the accumulator may hold, None: no reduction
        if modulus is not None:
            x, y = x % modulus, y % modulus
            top = modulus - 1
            limit = min(_int_limit(x), _int_limit(y))

        def reduce(acc):
            if isinstance(acc, int) or acc.dtype.kind not in "iu":
                return acc % modulus
            r = acc // modulus  # acc is a fresh array: reduce it in place
            r *= modulus
            acc -= r
            return acc

        def step(acc, bound, var, c, c_bound):
            # acc * var + c and a bound on it; a zero Python-int acc or c costs
            # no operand work
            if isinstance(acc, int) and acc == 0:
                return c, c_bound
            if limit is not None and bound * top + c_bound > limit:
                acc, bound = reduce(acc), top
                if bound * top + c_bound > limit:
                    c, c_bound = reduce(c), top
            acc = acc * var if isinstance(c, int) and c == 0 else acc * var + c
            return acc, (0 if limit is None else bound * top + c_bound)

        acc, bound = 0, 0
        for row in rows:
            inner, inner_bound = 0, 0
            for c in row:
                if modulus is not None:
                    c %= modulus
                inner, inner_bound = step(inner, inner_bound, x, c, c)
            acc, bound = step(acc, bound, y, inner, inner_bound)
        if modulus is not None and bound > top:
            acc = reduce(acc)
        if isinstance(acc, int):  # a constant: give it the operands' shape
            acc = x * 0 + y * 0 + acc
        return acc

    def _horner_rows(self) -> tuple[tuple[int, ...], ...]:
        """The coefficients for `horner`: rows in y, each in x, leading first."""
        return tuple(row[::-1] for row in _nested(self)[::-1]) or ((),)

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
        # graded-lex with x > y, leading term first
        return self._text(lambda k: (k[0] + k[1], k[0]))

    def _text(self, order) -> str:
        """The canonical form with terms sorted by `order`, largest first.

        Messages that name a factor from `_gcd` use lex order with y > x,
        k -> (k[1], k[0]), so that its leading term, the one `_gcd` makes
        positive, comes first: `y - x^2`, not `-x^2 + y`.
        """
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=order, reverse=True)
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


# -- gcd over Z[x, y] ---------------------------------------------------------
#
# Z[x, y] is read as Z[x][y]: a polynomial is the tuple of its coefficients
# in the outer variable, constant term first and no trailing zero, and each
# coefficient is an int (in Z) or such a tuple (in Z[x]).  Zero may be 0 or
# (); every routine tests it by truth value, so the two spellings mix.  One
# set of routines serves both levels: the gcd in y takes contents by the
# gcd in x, whose contents are integer gcds.


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _radd(a, b):
    if not a:
        return b
    if not b:
        return a
    if isinstance(a, int):
        return a + b
    if len(a) < len(b):
        a, b = b, a
    return _trim([_radd(c, b[i]) if i < len(b) else c for i, c in enumerate(a)])


def _rneg(a):
    return -a if isinstance(a, int) else tuple(_rneg(c) for c in a)


def _rmul(a, b):
    """a * b for a and b at the same level."""
    if not a or not b:
        return 0
    if isinstance(a, int):
        return a * b
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = _radd(out[i + j], _rmul(ca, cb))
    return tuple(out)  # Z[x] is a domain: the leading product is not zero


def _rquo(a, b):
    """a / b for b a nonzero divisor of a, both at the same level."""
    if not a:
        return 0
    if isinstance(a, int):
        return a // b
    a, n = list(a), len(b) - 1
    q = [0] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = _rquo(a[i + n], b[-1])
        for j, bj in enumerate(b):
            a[i + j] = _radd(a[i + j], _rneg(_rmul(c, bj)))
    return tuple(q)


def _rprem(a, b):
    """The pseudo-remainder of a by a nonzero b in the outer variable.

    While deg a >= deg b, a becomes lc(b) a - lc(a) v^(deg a - deg b) b:
    only multiplications, so the coefficients need no division.
    """
    n = len(b) - 1
    while len(a) > n:
        la, shift = a[-1], len(a) - 1 - n
        a = [_rmul(b[-1], c) for c in a]
        for j, bj in enumerate(b):
            a[shift + j] = _radd(a[shift + j], _rneg(_rmul(la, bj)))
        a = _trim(a)
    return a


def _is_one(c) -> bool:
    """c is 1 in Z or in Z[x]: a content that needs no division."""
    return c == 1 or c == (1,)


def _rlead(a) -> int:
    """The integer leading coefficient: the outer variable's, recursively."""
    while not isinstance(a, int):
        a = a[-1]
    return a


def _rcontent(a):
    """The positive gcd of a's coefficients."""
    c = 0
    for coeff in a:
        c = _rgcd(c, coeff)
        if _is_one(c):
            break
    return c


def _rprimitive(a: tuple) -> tuple:
    """a over its content, signed so that the integer leading coefficient is positive."""
    if not a:
        return ()
    c = _rcontent(a)
    if _rlead(a) < 0:
        c = _rneg(c)
    return a if _is_one(c) else tuple(_rquo(coeff, c) for coeff in a)


def _coprime_mod(a, b) -> bool:
    """True when a and b share no factor of degree >= 1 in the outer variable.

    Read mod the prime 2^31 - 1 with x = 48271, a and b become polynomials
    over a field in the outer variable.  A common factor d of degree >= 1
    keeps its degree there when a's leading coefficient, which d's
    divides, is not 0 there, and then d's image divides both images, so
    their gcd over the field is not constant.  So a constant gcd of the
    images proves a and b coprime; anything else proves nothing, and False
    only sends them on to the pseudo-remainder sequence.  For coprime
    inputs this replaces the sequence, whose coefficients grow with the
    degrees: 45 s against under 1 ms for f of total degree 10 with every
    coefficient set and its Jacobian with a cubic (2-core host, Python 3.11).
    """
    prime, point = 2**31 - 1, 48271

    def image(poly):
        # each coefficient is an int, or a tuple of ints in x
        out = []
        for c in poly:
            if not isinstance(c, int):
                c = sum(cx * pow(point, i, prime) for i, cx in enumerate(c or ()))
            out.append(c % prime)
        while out and not out[-1]:
            out.pop()
        return out

    u, v = image(a), image(b)
    if len(u) < len(a):
        u, v = v, u
        if len(u) < len(b):
            return False
    while v:  # Euclid over the field: u, v <- v, u mod v
        inverse = pow(v[-1], -1, prime)
        while len(u) >= len(v):
            c, shift = u[-1] * inverse % prime, len(u) - len(v)
            for i, vi in enumerate(v):
                u[shift + i] = (u[shift + i] - c * vi) % prime
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) == 1


def _rgcd(a, b):
    """The gcd of a and b, at the same level, with a positive integer leading coefficient.

    Ints take math.gcd.  Otherwise the gcd is the gcd of the two contents
    times the primitive part of the last nonzero term of the primitive
    pseudo-remainder sequence of the primitive parts (Gauss's lemma).  A
    primitive polynomial of degree 0 in the outer variable is 1, so an
    input or a term of degree 0 ends the work there, and so do inputs
    that `_coprime_mod` proves coprime.
    """
    if isinstance(a, int) and isinstance(b, int):
        return math.gcd(a, b)
    if not a or not b:
        a = a or b
        return _rneg(a) if a and _rlead(a) < 0 else a
    content = _rgcd(_rcontent(a), _rcontent(b))
    if len(a) == 1 or len(b) == 1 or _coprime_mod(a, b):
        return (content,)
    a, b = _rprimitive(a), _rprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _rprimitive(_rprem(a, b))
    if b:
        a = b
    return a if _is_one(content) else tuple(_rmul(content, c) for c in a)


def _nested(f: BiPoly) -> tuple:
    """f in Z[x][y], the representation of the routines above."""
    rows: dict[int, list[int]] = {}
    for (i, j), c in f.terms.items():
        row = rows.setdefault(j, [])
        row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    return tuple(tuple(rows.get(j, ())) for j in range(max(rows, default=-1) + 1))


def _flat(g) -> BiPoly:
    """The BiPoly of g in Z[x][y]."""
    return BiPoly({(i, j): c for j, row in enumerate(g or ()) for i, c in enumerate(row or ())})


def _gcd(*polys: BiPoly) -> BiPoly:
    """The primitive part of the polynomials' gcd over Z[x, y]; 0 when all are zero.

    The integer content is left out, as it has no zeros: a constant gcd
    gives 1.  The leading coefficient in lex order with y > x (the leading
    coefficient in y, then its leading one in x) is positive, so the gcd
    prints with `_text` in that order starting with a positive term.
    """
    g = 0
    for f in sorted(polys, key=BiPoly.degree):  # a constant ends the loop at once
        g = _rgcd(g, _nested(f))
        if len(g) == 1 and len(g[0]) == 1:
            break
    g = _flat(g)
    content = math.gcd(*g.terms.values())
    return BiPoly({k: c // content for k, c in g.terms.items()}) if content else g


def _squarefree(r: BiPoly) -> BiPoly:
    """r / gcd(r, r_x, r_y) for r from `_gcd`: each factor of r once.

    A factor s^e of r (e >= 1) gives s^(e-1) in gcd(r, r_x, r_y), so the
    quotient is the product of r's distinct factors.  It is exact over
    Z[x, y]; r primitive with a positive leading coefficient gives one too.
    """
    return _flat(_rquo(_nested(r), _nested(_gcd(r, r.partial("x"), r.partial("y")))))


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
        # the terms add into one dict: one BiPoly per expression, not per sign
        total: dict[tuple[int, int], int] = {}
        op = self.advance()[0] if self.peek()[0] in ("+", "-") else "+"
        while True:
            for k, c in self.term().terms.items():
                total[k] = total.get(k, 0) + (c if op == "+" else -c)
            if self.peek()[0] not in ("+", "-"):
                return BiPoly(total)
            op = self.advance()[0]

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
