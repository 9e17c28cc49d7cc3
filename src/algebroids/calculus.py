"""Exterior calculus over a Lie algebroid: graded elements and operators.

Multivectors and forms are stored the same way: a table mapping each degree p
to a sparse table of coefficients on strictly increasing index tuples from
{1..k}. A form's coefficient on I is its value on the basis sections
(e_{i1}, ..., e_{ip}); the wedge follows the shuffle convention with no
factorial normalization, so the dual bases stay dual degreewise.

The exterior derivative and both Lie derivatives are derivations of the wedge
algebra, fixed by their values on functions and basis elements: d f = sum_a
rho(e_a)f e^a, d e^c = -sum_{a<b} C^c_ab e^a ∧ e^b; L_V f = rho(V)f,
L_V e_b = {V, e_b}, L_V e^c = -sum_b <e^c, {V, e_b}> e^b. One scatter,
_derive, applies each from the nonzero terms of its input.

Two independent implementations of the Schouten bracket live here on purpose.
schouten_bracket extracts coefficients by applying the graded commutator
[[i(P), d], i(Q)] to dual basis forms; schouten_oracle recurses through wedge
monomials using the derivation and antisymmetry rules and never touches the
exterior derivative. Sign mistakes in one path show up as disagreement with
the other.
"""

from __future__ import annotations

from itertools import combinations

from . import algebroid as _alg
from .expr import ONE, ZERO, Expr, validate_chart

FORM = "form"
MULTIVECTOR = "multivector"


def _as_coefficient(value):
    if isinstance(value, Expr):
        return value
    return Expr.const(value)


class GradedElement:
    """A multivector or form with polynomial coefficients.

    components: {degree: {index tuple: Expr}} with strictly increasing
    1-based tuples; the degree-0 slot uses the empty tuple. Zero
    coefficients and empty degrees are normalized away, so is_zero and
    __eq__ are table comparisons.
    """

    __slots__ = ("algebroid", "variance", "components")

    def __init__(self, algebroid, variance, components):
        if variance not in (FORM, MULTIVECTOR):
            raise ValueError(f"variance must be {FORM!r} or {MULTIVECTOR!r}, got {variance!r}")
        rank = algebroid.rank
        chart = set(algebroid.chart)
        table = {}
        for degree, entries in components.items():
            if not isinstance(degree, int) or degree < 0:
                raise ValueError(f"degree {degree!r} is not a nonnegative integer")
            if entries and degree > rank:
                raise ValueError(f"degree {degree!r} out of range 0..{rank}")
            cleaned = {}
            for index, value in entries.items():
                index = tuple(index)
                if len(index) != degree:
                    raise ValueError(f"index {index} has length {len(index)}, expected {degree}")
                if any(not (1 <= a <= rank) for a in index):
                    raise ValueError(f"index {index} out of range 1..{rank}")
                if any(index[t] >= index[t + 1] for t in range(len(index) - 1)):
                    raise ValueError(f"index {index} is not strictly increasing")
                value = _as_coefficient(value)
                foreign = value.variables() - chart
                if foreign:
                    raise ValueError(f"coefficient on {index} uses foreign coordinate '{sorted(foreign)[0]}'")
                if value:
                    cleaned[index] = value
            if cleaned:
                table[degree] = cleaned
        self.algebroid = algebroid
        self.variance = variance
        self.components = table

    @classmethod
    def zero(cls, algebroid, variance):
        return cls(algebroid, variance, {})

    @classmethod
    def scalar(cls, algebroid, variance, value):
        return cls(algebroid, variance, {0: {(): value}})

    @classmethod
    def basis(cls, algebroid, variance, index):
        index = tuple(index)
        return cls(algebroid, variance, {len(index): {index: ONE}})

    def degrees(self):
        return sorted(self.components)

    def coefficient(self, index):
        index = tuple(index)
        return self.components.get(len(index), {}).get(index, ZERO)

    def scalar_part(self):
        return self.coefficient(())

    def homogeneous_part(self, degree):
        table = self.components.get(degree)
        if table is None:
            return GradedElement(self.algebroid, self.variance, {})
        return GradedElement(self.algebroid, self.variance, {degree: dict(table)})

    def is_zero(self):
        return not self.components

    def is_homogeneous(self, degree=None):
        if not self.components:
            return True
        if len(self.components) != 1:
            return False
        return degree is None or degree in self.components

    def scale(self, factor):
        factor = _as_coefficient(factor)
        out = {}
        for degree, table in self.components.items():
            for index, value in table.items():
                _accumulate(out, degree, index, factor * value)
        return GradedElement(self.algebroid, self.variance, out)

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        _require_compatible(self, other, "+")
        out = {d: dict(t) for d, t in self.components.items()}
        for degree, table in other.components.items():
            for index, value in table.items():
                _accumulate(out, degree, index, value)
        return GradedElement(self.algebroid, self.variance, out)

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (
            self.variance == other.variance
            and self.algebroid.same_shape(other.algebroid)
            and self.components == other.components
        )

    def __repr__(self):
        body = {
            degree: {index: value.to_text() for index, value in sorted(table.items())}
            for degree, table in sorted(self.components.items())
        }
        return f"GradedElement({self.variance}, {body})"


def _accumulate(store, degree, index, value):
    if not value:
        return
    table = store.setdefault(degree, {})
    acc = table.get(index, ZERO) + value
    if acc:
        table[index] = acc
    else:
        del table[index]
        if not table:
            del store[degree]


def _require_compatible(x, y, context):
    if x.variance != y.variance:
        raise ValueError(f"{context}: variance mismatch ({x.variance} vs {y.variance})")
    if not x.algebroid.same_shape(y.algebroid):
        raise ValueError(f"{context}: elements live over different charts or ranks")


def _require_over(algebroid, element, context):
    if not algebroid.same_shape(element.algebroid):
        raise ValueError(f"{context}: element does not match the algebroid's chart/rank")


def _require_variance(element, variance, context):
    if element.variance != variance:
        raise ValueError(f"{context}: expected a {variance}, got a {element.variance}")


def _merge_indices(I, J):
    """Merge two increasing tuples; return (sign parity, merged) or None on
    overlap. Parity counts the transpositions moving J's entries into place."""
    i = j = 0
    inversions = 0
    out = []
    while i < len(I) and j < len(J):
        if I[i] == J[j]:
            return None
        if I[i] < J[j]:
            out.append(I[i])
            i += 1
        else:
            out.append(J[j])
            inversions += len(I) - i
            j += 1
    out.extend(I[i:])
    out.extend(J[j:])
    return (inversions & 1, tuple(out))


def wedge(P, Q):
    """Exterior product under the shuffle convention. Degree-0 factors
    multiply coefficients; on basis monomials e_I ∧ e_J is the signed merge."""
    _require_compatible(P, Q, "wedge")
    out = {}
    for p, tp in P.components.items():
        for q, tq in Q.components.items():
            for I, f in tp.items():
                for J, g in tq.items():
                    merged = _merge_indices(I, J)
                    if merged is None:
                        continue
                    parity, K = merged
                    term = f * g
                    _accumulate(out, p + q, K, -term if parity else term)
    return GradedElement(P.algebroid, P.variance, out)


def _wedge_push(element, target, rows):
    """Push an element's coefficients onto multivectors over `target`: scalars
    pass through, basis element a maps to the degree-1 multivector with
    components rows[a - 1], and higher degrees extend wedge-multiplicatively."""
    images = [
        GradedElement(target, MULTIVECTOR, {1: {(j,): value for j, value in enumerate(row, start=1)}})
        for row in rows
    ]
    total = GradedElement(target, MULTIVECTOR, {})
    for degree, table in element.components.items():
        if degree == 0:
            total = total + GradedElement(target, MULTIVECTOR, {0: dict(table)})
            continue
        for index, coeff in table.items():
            term = images[index[0] - 1]
            for a in index[1:]:
                term = wedge(term, images[a - 1])
            total = total + term.scale(coeff)
    return total


def _interior_basis(a, components):
    """One contraction i(e_a) on a form's component table."""
    out = {}
    for degree, table in components.items():
        if degree == 0:
            continue
        for index, value in table.items():
            if a not in index:
                continue
            r = index.index(a)
            reduced = index[:r] + index[r + 1 :]
            _accumulate(out, degree - 1, reduced, -value if r & 1 else value)
    return out


def interior_product(P, eta):
    """Contraction of a form by a multivector. A monomial e_{i1}∧...∧e_{ip}
    acts as i(e_{i1})∘...∘i(e_{ip}), innermost factor applied first; a
    degree-0 multivector multiplies."""
    _require_variance(P, MULTIVECTOR, "interior_product")
    _require_variance(eta, FORM, "interior_product")
    if not P.algebroid.same_shape(eta.algebroid):
        raise ValueError("interior_product: elements live over different charts or ranks")
    out = {}
    for p, tp in P.components.items():
        for index, coeff in tp.items():
            current = eta.components
            for a in reversed(index):
                current = _interior_basis(a, current)
            for degree, table in current.items():
                for J, value in table.items():
                    _accumulate(out, degree, J, coeff * value)
    return GradedElement(eta.algebroid, FORM, out)


def pairing(eta, P):
    """Scalar pairing of a form with a multivector: the coefficient tables
    contract degreewise, and unequal degrees pair to zero."""
    _require_variance(eta, FORM, "pairing")
    _require_variance(P, MULTIVECTOR, "pairing")
    if not eta.algebroid.same_shape(P.algebroid):
        raise ValueError("pairing: elements live over different charts or ranks")
    total = ZERO
    for degree, table in eta.components.items():
        other = P.components.get(degree)
        if not other:
            continue
        for index, value in table.items():
            pv = other.get(index)
            if pv is not None:
                total = total + value * pv
    return total


def _derive(algebroid, variance, element, shift, columns, images):
    """The derivation D of degree `shift` with D f = sum_i d_i f columns[x_i]
    and D e_c = images[c]; each value is a list of (index tuple, Expr). It
    scatters from the nonzero terms f e_I of `element`:
      D(f e_I) = D f ∧ e_I + sum_t (-1)^t f (D e_{i_t}) ∧ e_{I minus i_t},
    the sign moving D e_{i_t} to the front for shift 0 and shift 1 alike."""
    out = {}
    for p, table in element.components.items():
        for I, f in table.items():
            for name in f.variables() & columns.keys():
                df = f.diff(name)
                for J, value in columns[name]:
                    merged = _merge_indices(J, I)
                    if merged is not None:
                        term = value * df
                        _accumulate(out, p + shift, merged[1], -term if merged[0] else term)
            for t, c in enumerate(I):
                rest = I[:t] + I[t + 1 :]
                for J, value in images.get(c, ()):
                    merged = _merge_indices(J, rest)
                    if merged is not None:
                        term = f * value
                        _accumulate(out, p + shift, merged[1], -term if merged[0] ^ (t & 1) else term)
    return GradedElement(algebroid, variance, out)


def _d_generators(algebroid):
    """d on generators, built once per algebroid: {c: [((a, b), -C^c_ab)]}
    for d e^c, and {coordinate: [((a,), rho^i_a)]} over nonzero anchor entries."""
    tables = algebroid._d_generators
    if tables is None:
        duals = {}
        for ab, entries in algebroid.structure.items():
            for c, value in entries.items():
                duals.setdefault(c, []).append((ab, -value))
        columns = {}
        for i, name in enumerate(algebroid.chart):
            column = [((a,), row[i]) for a, row in enumerate(algebroid.anchor, start=1) if row[i]]
            if column:
                columns[name] = column
        tables = algebroid._d_generators = (columns, duals)
    return tables


def exterior_derivative(algebroid, eta):
    """Exterior derivative by the graded Leibniz rule on each term f e^I:
      d(f e^I) = df ∧ e^I + sum_t (-1)^t f (d e^{i_t}) ∧ e^{I minus i_t}.
    The generator tables come from `algebroid`, not from eta.algebroid."""
    _require_variance(eta, FORM, "exterior_derivative")
    _require_over(algebroid, eta, "exterior_derivative")
    return _derive(algebroid, FORM, eta, 1, *_d_generators(algebroid))


def _lie_generators(algebroid, V, context):
    """L_V on generators: {coordinate: [((), rho(V)^i)]} for L_V f, and
    {b: [((c,), <e^c, {V, e_b}>)]} for L_V e_b, from k section brackets."""
    _require_variance(V, MULTIVECTOR, context)
    _require_over(algebroid, V, context)
    vcoeffs = _alg._section_coeffs(V)
    columns = {}
    for i, name in enumerate(algebroid.chart):
        value = sum((fa * algebroid.anchor[a - 1][i] for a, fa in vcoeffs.items()), ZERO)
        if value:
            columns[name] = [((), value)]
    brackets = {}
    for b in range(1, algebroid.rank + 1):
        eb = GradedElement(algebroid, MULTIVECTOR, {1: {(b,): ONE}})
        brackets[b] = list(_alg.bracket_sections(algebroid, V, eb).components.get(1, {}).items())
    return columns, brackets


def lie_derivative_form(algebroid, V, eta):
    """Lie derivative of a form along a section: the degree-0 derivation with
    L_V f = rho(V) f and L_V e^c = -sum_b <e^c, {V, e_b}> e^b."""
    _require_variance(eta, FORM, "lie_derivative_form")
    _require_over(algebroid, eta, "lie_derivative_form")
    columns, brackets = _lie_generators(algebroid, V, "lie_derivative_form")
    images = {}
    for b, entries in brackets.items():
        for (c,), value in entries:
            images.setdefault(c, []).append(((b,), -value))
    return _derive(algebroid, FORM, eta, 0, columns, images)


def lie_derivative_multivector(algebroid, V, P):
    """Lie derivative of a multivector along a section: the degree-0
    derivation with L_V f = rho(V) f and L_V e_b = {V, e_b}."""
    _require_variance(P, MULTIVECTOR, "lie_derivative_multivector")
    _require_over(algebroid, P, "lie_derivative_multivector")
    columns, brackets = _lie_generators(algebroid, V, "lie_derivative_multivector")
    return _derive(algebroid, MULTIVECTOR, P, 0, columns, brackets)


class OperatorValue:
    """A form-to-form operator with a declared homogeneity degree (None when
    the operator is not homogeneous)."""

    __slots__ = ("_apply", "degree")

    def __init__(self, apply, degree=None):
        self._apply = apply
        self.degree = degree

    def __call__(self, eta):
        return self._apply(eta)

    def __repr__(self):
        return f"OperatorValue(degree={self.degree})"


def lie_operator(algebroid, P):
    """The Lie derivative operator of a multivector, as the graded commutator
    of the contraction i(P) with the exterior derivative. For a homogeneous
    degree-p piece it sends eta to i(P)(d eta) - (-1)^p d(i(P) eta)."""
    _require_variance(P, MULTIVECTOR, "lie_operator")
    _require_over(algebroid, P, "lie_operator")
    parts = [
        (p, GradedElement(algebroid, MULTIVECTOR, {p: dict(table)}))
        for p, table in P.components.items()
    ]

    def apply(eta):
        _require_variance(eta, FORM, "lie_operator application")
        _require_over(algebroid, eta, "lie_operator application")
        total = GradedElement(algebroid, FORM, {})
        for p, piece in parts:
            outer = interior_product(piece, exterior_derivative(algebroid, eta))
            inner = exterior_derivative(algebroid, interior_product(piece, eta))
            if p & 1:
                total = total + outer + inner
            else:
                total = total + outer - inner
        return total

    degree = 1 - parts[0][0] if len(parts) == 1 else None
    return OperatorValue(apply, degree)


def schouten_bracket(algebroid, P, Q):
    """Schouten bracket by operator extraction (the normative path).

    For homogeneous degrees p and q the coefficient on a tuple I of length
    r = p+q-1 is (-1)^(r(r-1)/2) times the scalar [[i(P),d],i(Q)] e^I, the
    inner graded commutator being the Lie operator of P. Mixed degrees extend
    bilinearly.
    """
    _require_variance(P, MULTIVECTOR, "schouten_bracket")
    _require_variance(Q, MULTIVECTOR, "schouten_bracket")
    _require_over(algebroid, P, "schouten_bracket")
    _require_over(algebroid, Q, "schouten_bracket")
    k = algebroid.rank
    out = {}
    for p, tp in P.components.items():
        piece_p = GradedElement(algebroid, MULTIVECTOR, {p: dict(tp)})
        lp = lie_operator(algebroid, piece_p)
        for q, tq in Q.components.items():
            piece_q = GradedElement(algebroid, MULTIVECTOR, {q: dict(tq)})
            r = p + q - 1
            if r < 0 or r > k:
                continue
            outer_parity = (r * (r - 1) // 2) & 1
            mid_parity = ((p - 1) * q) & 1
            for I in combinations(range(1, k + 1), r):
                eI = GradedElement(algebroid, FORM, {r: {I: ONE}})
                first = lp(interior_product(piece_q, eI)).scalar_part()
                second = interior_product(piece_q, lp(eI)).scalar_part()
                s = first + second if mid_parity else first - second
                if outer_parity:
                    s = -s
                _accumulate(out, r, I, s)
    return GradedElement(algebroid, MULTIVECTOR, out)


def _oracle_homogeneous(algebroid, P, p, Q, q):
    if p == 0:
        if q == 0:
            return GradedElement(algebroid, MULTIVECTOR, {})
        flipped = _oracle_homogeneous(algebroid, Q, q, P, 0)
        return flipped if q % 2 == 0 else -flipped
    if p == 1:
        return lie_derivative_multivector(algebroid, P, Q)
    total = GradedElement(algebroid, MULTIVECTOR, {})
    head_sign = ((p - 1) * (q - 1)) & 1
    for index, coeff in P.components.get(p, {}).items():
        head = GradedElement(algebroid, MULTIVECTOR, {1: {(index[0],): coeff}})
        rest = GradedElement(algebroid, MULTIVECTOR, {p - 1: {index[1:]: ONE}})
        left = wedge(lie_derivative_multivector(algebroid, head, Q), rest)
        right = wedge(head, _oracle_homogeneous(algebroid, rest, p - 1, Q, q))
        total = total + (-left if head_sign else left) + right
    return total


def schouten_oracle(algebroid, P, Q):
    """Schouten bracket by recursion on wedge monomials (the checking path).

    Splits P as (head section) wedge (rest) and applies the graded left
    derivation rule, with Lie derivatives at degree one and the antisymmetry
    flip at degree zero. Beyond the Lie derivative it shares with the
    operator extraction only the scatter _derive behind d and the Lie
    derivatives, which the tests' dense references guard.
    """
    _require_variance(P, MULTIVECTOR, "schouten_oracle")
    _require_variance(Q, MULTIVECTOR, "schouten_oracle")
    _require_over(algebroid, P, "schouten_oracle")
    _require_over(algebroid, Q, "schouten_oracle")
    total = GradedElement(algebroid, MULTIVECTOR, {})
    for p in P.degrees():
        for q in Q.degrees():
            total = total + _oracle_homogeneous(
                algebroid, P.homogeneous_part(p), p, Q.homogeneous_part(q), q
            )
    return total


class ReconstructionError(ValueError):
    """Raised when a probed operator cannot come from an algebroid. Carries
    the offending residual (a GradedElement, or an AxiomReport at the final
    verification stage)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def delta_reconstruct(chart, rank, delta):
    """Rebuild structure data from a degree-1 square-zero derivation of forms.

    The anchor row for e_a is read off the pairings <delta(x^i), e_a>, and
    the structure functions off the images of the basis 1-forms, C^c_ab =
    -(delta e^c)_ab, as for d e^c. The operator is probed on generators
    (constants, coordinate scalars, basis 1-forms and their products) before
    extraction, and the reconstructed tables must pass verify_axioms; any
    failure raises ReconstructionError with the first offending residual.
    """
    chart = validate_chart(chart)
    if not isinstance(rank, int) or rank < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")
    declared = getattr(delta, "degree", None)
    if declared is not None and declared != 1:
        raise ValueError(f"delta must have degree 1, got {declared}")

    scaffold = _alg.new_algebroid(chart, rank)
    duals = [GradedElement(scaffold, FORM, {1: {(a,): ONE}}) for a in range(1, rank + 1)]
    vectors = [GradedElement(scaffold, MULTIVECTOR, {1: {(a,): ONE}}) for a in range(1, rank + 1)]
    coords = [GradedElement.scalar(scaffold, FORM, Expr.var(name)) for name in chart]

    def ensure_zero(element, label):
        if not element.is_zero():
            raise ReconstructionError(f"delta fails on {label}: nonzero residual {element!r}", element)

    def ensure_pure(element, degree, label):
        stray = [d for d in element.components if d != degree]
        if stray:
            raise ReconstructionError(
                f"delta is not homogeneous of degree 1 on {label}: found degree {stray[0]}", element
            )

    ensure_zero(delta(GradedElement.scalar(scaffold, FORM, ONE)), "the constant 1")

    coord_images = []
    for name, c in zip(chart, coords):
        image = delta(c)
        ensure_pure(image, 1, name)
        coord_images.append(image)
    dual_images = []
    for a, ea in enumerate(duals, start=1):
        image = delta(ea)
        ensure_pure(image, 2, f"basis form {a}")
        dual_images.append(image)

    for name, image in zip(chart, coord_images):
        ensure_zero(delta(image), f"delta squared at {name}")
    for a, image in enumerate(dual_images, start=1):
        ensure_zero(delta(image), f"delta squared at basis form {a}")

    for i, name_i in enumerate(chart):
        xi = Expr.var(name_i)
        for j in range(i, len(chart)):
            xj = Expr.var(chart[j])
            product = GradedElement.scalar(scaffold, FORM, xi * xj)
            residual = delta(product) - coord_images[i].scale(xj) - coord_images[j].scale(xi)
            ensure_zero(residual, f"the product {name_i}*{chart[j]}")
        for a in range(rank):
            scaled = GradedElement(scaffold, FORM, {1: {(a + 1,): xi}})
            residual = delta(scaled) - wedge(coord_images[i], duals[a]) - dual_images[a].scale(xi)
            ensure_zero(residual, f"{name_i} times basis form {a + 1}")
    for a in range(rank):
        for b in range(a + 1, rank):
            pair = GradedElement(scaffold, FORM, {2: {(a + 1, b + 1): ONE}})
            residual = delta(pair) - wedge(dual_images[a], duals[b]) + wedge(duals[a], dual_images[b])
            ensure_zero(residual, f"the product of basis forms {a + 1} and {b + 1}")

    anchor = [
        [pairing(coord_images[i], vectors[a]) for i in range(len(chart))]
        for a in range(rank)
    ]

    structure = {}
    for c, image in enumerate(dual_images, start=1):
        for ab, value in image.components.get(2, {}).items():
            structure.setdefault(ab, {})[c] = -value

    result = _alg.new_algebroid(chart, rank, anchor, structure)
    report = _alg.verify_axioms(result)
    if not report.passed:
        raise ReconstructionError(
            "reconstructed tables do not satisfy the algebroid axioms", report
        )
    return result
