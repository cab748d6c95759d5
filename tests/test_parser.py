import pytest

from cascade_logic import ParseError, parse_expr, variables
from cascade_logic.parser import And, Nand, Nor, Not, Or, Var, Xor


class TestBasics:
    def test_and(self):
        assert parse_expr("a & b") == And((Var("a"), Var("b")))

    def test_not_of_group(self):
        assert parse_expr("!(a | b)") == Not(Or((Var("a"), Var("b"))))

    def test_xor(self):
        assert parse_expr("a ^ b") == Xor((Var("a"), Var("b")))

    def test_single_variable(self):
        assert parse_expr("  spam_1 ") == Var("spam_1")

    def test_nand_nor_tokens(self):
        assert parse_expr("a @& b") == Nand((Var("a"), Var("b")))
        assert parse_expr("a @| b") == Nor((Var("a"), Var("b")))


class TestPrecedenceAndFolding:
    def test_chain_folds_to_kary(self):
        assert parse_expr("a & b & c") == And((Var("a"), Var("b"), Var("c")))
        assert parse_expr("a | b | c | d") == Or(
            (Var("a"), Var("b"), Var("c"), Var("d")))

    def test_parentheses_block_folding(self):
        assert parse_expr("(a & b) & c") == And((And((Var("a"), Var("b"))), Var("c")))

    def test_operator_change_breaks_chain(self):
        assert parse_expr("a & b @& c") == Nand((And((Var("a"), Var("b"))), Var("c")))
        assert parse_expr("a @| b | c") == Or((Nor((Var("a"), Var("b"))), Var("c")))

    def test_and_binds_tighter_than_or(self):
        assert parse_expr("a | b & c") == Or((Var("a"), And((Var("b"), Var("c")))))

    def test_xor_sits_between(self):
        assert parse_expr("a ^ b | c") == Or((Xor((Var("a"), Var("b"))), Var("c")))
        assert parse_expr("a ^ b & c") == Xor((Var("a"), And((Var("b"), Var("c")))))

    def test_xor_chain_folds_to_kary(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse_expr("a ^ b ^ c") == Xor((a, b, c))
        assert parse_expr("(a ^ b) ^ c") == Xor((Xor((a, b)), c))

    def test_not_binds_tightest(self):
        assert parse_expr("!a & b") == And((Not(Var("a")), Var("b")))
        assert parse_expr("!!a") == Not(Not(Var("a")))


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_expr("   ")

    def test_dangling_operator(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_expr("a &")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(a | b")

    def test_adjacent_identifiers(self):
        with pytest.raises(ParseError, match="unexpected 'b'"):
            parse_expr("a b")

    def test_unknown_character_position(self):
        with pytest.raises(ParseError) as info:
            parse_expr("a % b")
        assert info.value.position == 2

    def test_lone_close_paren(self):
        with pytest.raises(ParseError, match="unexpected"):
            parse_expr(")")


def test_variables_first_appearance_order():
    expr = parse_expr("b & a | b ^ c")
    assert variables(expr) == ["b", "a", "c"]
