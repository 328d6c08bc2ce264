"""Tests for the symbolic arithmetic layer (repro.lift.arith)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.lift.arith import (ArithError, Cst, IntDiv, Mod, Prod, Sum, Var,
                              fresh_var, to_arith)


class TestPickle:
    @pytest.mark.parametrize("expr", [
        Cst(7), Var("N"), Var("N") + Var("M") + 1, Var("N") * Var("M"),
        IntDiv(Var("N"), Cst(4)), Mod(Var("i"), Var("N") + 2)],
        ids=["Cst", "Var", "Sum", "Prod", "IntDiv", "Mod"])
    def test_round_trip_is_equal_with_equal_hash(self, expr):
        copy = pickle.loads(pickle.dumps(expr))
        assert type(copy) is type(expr)
        assert copy == expr
        assert hash(copy) == hash(expr)
        assert copy.to_c() == expr.to_c()


class TestConstruction:
    def test_cst_value(self):
        assert Cst(5).value == 5

    def test_cst_rejects_non_int(self):
        with pytest.raises(ArithError):
            Cst(1.5)

    def test_cst_rejects_bool(self):
        with pytest.raises(ArithError):
            Cst(True)

    def test_var_name(self):
        assert Var("N").name == "N"

    def test_var_rejects_empty(self):
        with pytest.raises(ArithError):
            Var("")

    def test_to_arith_int(self):
        assert to_arith(7) == Cst(7)

    def test_to_arith_passthrough(self):
        v = Var("x")
        assert to_arith(v) is v

    def test_to_arith_rejects_bool(self):
        with pytest.raises(ArithError):
            to_arith(True)

    def test_to_arith_rejects_float(self):
        with pytest.raises(ArithError):
            to_arith(1.5)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Cst(1).value = 2
        with pytest.raises(AttributeError):
            Var("x").name = "y"


class TestSimplification:
    def test_constant_folding_sum(self):
        assert Cst(2) + Cst(3) == Cst(5)

    def test_constant_folding_product(self):
        assert Cst(4) * Cst(5) == Cst(20)

    def test_add_zero(self):
        x = Var("x")
        assert x + 0 == x

    def test_mul_one(self):
        x = Var("x")
        assert x * 1 == x

    def test_mul_zero(self):
        assert Var("x") * 0 == Cst(0)

    def test_sub_self_not_required_but_sum_flattening(self):
        x = Var("x")
        e = (x + 1) + (x + 2)
        assert e.evaluate({"x": 10}) == 23

    def test_nested_sums_flatten(self):
        x, y = Var("x"), Var("y")
        e = (x + y) + (x + y)
        assert isinstance(e, Sum)
        assert e.evaluate({"x": 1, "y": 2}) == 6

    def test_div_by_one(self):
        x = Var("x")
        assert x // 1 == x

    def test_div_self(self):
        x = Var("x")
        assert x // x == Cst(1)

    def test_div_constants(self):
        assert Cst(7) // Cst(2) == Cst(3)

    def test_div_by_zero_constant(self):
        with pytest.raises(ArithError):
            Cst(1) // Cst(0)

    def test_mod_by_one(self):
        assert Var("x") % 1 == Cst(0)

    def test_mod_self(self):
        x = Var("x")
        assert x % x == Cst(0)

    def test_mod_constants(self):
        assert Cst(7) % Cst(3) == Cst(1)

    def test_neg(self):
        assert (-Cst(3)) == Cst(-3)

    def test_commutative_sums_equal(self):
        x, y = Var("x"), Var("y")
        assert x + y == y + x

    def test_commutative_products_equal(self):
        x, y = Var("x"), Var("y")
        assert x * y == y * x


class TestEvaluate:
    def test_evaluate_constant(self):
        assert Cst(5).evaluate() == 5

    def test_evaluate_var(self):
        assert Var("n").evaluate({"n": 9}) == 9

    def test_unbound_var_raises(self):
        with pytest.raises(ArithError):
            Var("n").evaluate({})

    def test_compound(self):
        n = Var("n")
        e = (n * 3 + 1) // 2
        assert e.evaluate({"n": 5}) == 8

    def test_rsub_rmul_radd(self):
        n = Var("n")
        assert (10 - n).evaluate({"n": 4}) == 6
        assert (10 * n).evaluate({"n": 4}) == 40
        assert (10 + n).evaluate({"n": 4}) == 14

    def test_as_constant(self):
        assert (Cst(3) * Cst(4)).as_constant() == 12
        assert (Var("x") + 1).as_constant() is None


class TestFreeVarsAndSubstitute:
    def test_free_vars(self):
        e = Var("a") * Var("b") + 3
        assert e.free_vars() == {"a", "b"}

    def test_substitute_var(self):
        e = Var("n") + 1
        assert e.substitute({"n": 4}) == Cst(5)

    def test_substitute_with_expr(self):
        e = Var("n") * 2
        e2 = e.substitute({"n": Var("m") + 1})
        assert e2.evaluate({"m": 3}) == 8

    def test_substitute_leaves_others(self):
        e = Var("n") + Var("m")
        e2 = e.substitute({"n": 1})
        assert e2.free_vars() == {"m"}

    def test_substitute_div_mod(self):
        e = (Var("n") // Var("d")) + (Var("n") % Var("d"))
        assert e.substitute({"n": 7, "d": 3}) == Cst(3)


class TestToC:
    def test_var(self):
        assert Var("N").to_c() == "N"

    def test_cst(self):
        assert Cst(42).to_c() == "42"

    def test_product(self):
        c = (Var("a") * Var("b")).to_c()
        assert "a" in c and "b" in c and "*" in c

    def test_div_mod(self):
        assert (Var("a") // Var("b")).to_c() == "(a/b)"
        assert (Var("a") % Var("b")).to_c() == "(a%b)"

    def test_c_text_is_deterministic(self):
        e1 = Var("x") + Var("y") * 2
        e2 = Var("x") + Var("y") * 2
        assert e1.to_c() == e2.to_c()


class TestFreshVar:
    def test_unique(self):
        a, b = fresh_var("i"), fresh_var("i")
        assert a.name != b.name

    def test_prefix(self):
        assert fresh_var("gid").name.startswith("gid")


# --- property-based: the symbolic algebra agrees with Python ints ----------

_small_int = st.integers(min_value=-20, max_value=20)


@st.composite
def _expr_and_env(draw, depth=0):
    """Random (ArithExpr, env, python_value) triples."""
    choice = draw(st.integers(0, 5 if depth < 3 else 1))
    if choice == 0:
        v = draw(_small_int)
        return Cst(v), {}, v
    if choice == 1:
        name = draw(st.sampled_from(["a", "b", "c"]))
        val = draw(_small_int)
        return Var(name), {name: val}, val
    l, le, lv = draw(_expr_and_env(depth=depth + 1))
    r, re, rv = draw(_expr_and_env(depth=depth + 1))
    env = {**le, **re}

    def safe_eval(e):
        try:
            return e.evaluate(env)
        except ArithError:
            return None

    # re-evaluate sub-values under the merged env (name collisions can
    # change nested divisors, so guard against division by zero)
    lv, rv = safe_eval(l), safe_eval(r)
    if lv is None or rv is None:
        return Cst(0), {}, 0
    if choice == 2:
        return l + r, env, lv + rv
    if choice == 3:
        return l * r, env, lv * rv
    if choice == 4:
        return l - r, env, lv - rv
    if rv == 0:
        return l + r, env, lv + rv
    try:
        e = l // r
        ev = safe_eval(e)
    except ArithError:
        return l + r, env, lv + rv
    if ev is None:
        return l + r, env, lv + rv
    return e, env, lv // rv


@given(_expr_and_env())
def test_symbolic_matches_python(data):
    expr, env, expected = data
    assert expr.evaluate(env) == expected


@given(_expr_and_env(), _small_int)
def test_substitution_then_evaluation_commutes(data, val):
    expr, env, _ = data
    if "a" not in expr.free_vars():
        return
    env2 = dict(env)
    env2["a"] = val
    try:
        expected = expr.evaluate(env2)
    except ArithError:
        return  # substitution made a divisor zero; nothing to compare
    try:
        substituted = expr.substitute({"a": val})
    except ArithError:
        return  # simplification detects the zero divisor eagerly — also fine
    assert substituted.evaluate(env2) == expected


@given(_expr_and_env())
def test_equality_is_hash_consistent(data):
    expr, _, _ = data
    clone = expr.substitute({})
    assert clone == expr
    assert hash(clone) == hash(expr)
