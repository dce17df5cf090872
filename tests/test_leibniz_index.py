"""The flat Leibniz index, built in one pass over the stored pairs, against
the rows-based index, kernel and separate encoding loop kept in oracles:
the same _leibniz_failures output for every (g, lo) scan and the same
ValidationReport from validate_table, messages in order.  Tables are
one-term, multi-term (targets may repeat), malformed (bad keys, targets
out of range, stored zeros, empty term tuples) and stored in a dict
order that is not ascending.  Two corner cases are pinned: an empty term
tuple leaves one_term False, and a one-term table stored in descending
key order still takes the certificate route."""

import random

from hypothesis import given, settings, strategies as st

from oracles import OracleLeibnizIndex, element_by_index, is_one_term, oracle_leibniz_failures, oracle_validate_table
from test_jacobi import REAL, alternating_tables, hand_built_tables
from thinlie import liealg
from thinlie.ffield import field_create
from thinlie.liealg import StructureTable, ValidationReport, validate_table


def _malform(table, rng):
    """table with one to three faults: a bad key (diagonal, reversed or out
    of range), a target out of range, a stored zero, or an empty term tuple."""
    field, dim = table.field, table.dim
    brackets = dict(table.brackets)
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(["key", "target", "zero", "empty"])
        c = element_by_index(field, rng.randrange(1, field.size))
        if how == "key":
            i = rng.randrange(dim)
            key = rng.choice([(i, i), (dim - 1, i if i < dim - 1 else 0), (i, dim), (-1, i)])
            brackets[key] = ((rng.randrange(dim), c),)
            continue
        key = rng.choice(sorted(brackets)) if brackets else (0, 1)
        terms = list(brackets.get(key, ()))
        if how == "target":
            terms.append((rng.choice([dim, dim + 3, -1]), c))
        elif how == "zero":
            terms.append((rng.randrange(dim), field.zero))
        else:
            terms = []
        brackets[key] = tuple(terms)
    return StructureTable(field, table.labels, brackets)


@st.composite
def tables(draw):
    """A one-term, multi-term, hand-built (targets may repeat) or real
    table, malformed or not, stored in ascending, descending or shuffled
    key order."""
    table = draw(st.one_of(alternating_tables(most=1), alternating_tables(), hand_built_tables(), st.sampled_from(REAL)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        table = _malform(table, rng)
    items = sorted(table.brackets.items())
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        items.reverse()
    elif order == "shuffled":
        rng.shuffle(items)
    return StructureTable(table.field, table.labels, dict(items))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_flat_index_matches_the_rows_oracle(table):
    dim = table.dim
    scans = [(g, lo) for g in range(dim) for lo in range(-1, dim)]
    index = liealg._LeibnizIndex(table)
    assert list(liealg._leibniz_failures(index, scans)) == oracle_leibniz_failures(OracleLeibnizIndex(table), scans)
    assert index.one_term == is_one_term(table) == OracleLeibnizIndex(table).one_term
    for cap in (1, 3, 10 ** 6):
        assert validate_table(table, cap) == oracle_validate_table(table, cap)


def test_empty_term_tuple_is_not_one_term():
    # (0, 2) holds two terms and (0, 1) none: as many terms as pairs
    f3 = field_create(3)
    one = f3.one
    for brackets in ({(0, 1): ()}, {(0, 1): (), (0, 2): ((1, one), (2, one))},
                     {(0, 2): ((1, one), (1, one)), (0, 1): ()}):
        table = StructureTable(f3, ["a", "b", "c"], brackets)
        assert not is_one_term(table)
        assert not liealg._LeibnizIndex(table).one_term


def test_descending_hand_built_table_takes_the_certificate(monkeypatch):
    # W(1;2) at p = 3 stored last key first: the index sorts its lists, the
    # certificate decides, and only (g, -1) passes run
    table = REAL[0]
    backwards = StructureTable(table.field, table.labels, dict(sorted(table.brackets.items(), reverse=True)))
    assert list(backwards.brackets) != sorted(backwards.brackets)
    index = liealg._LeibnizIndex(backwards)
    assert index.one_term
    for name in ("keys", "tgts", "logs", "by_target"):
        assert getattr(index, name) == getattr(liealg._LeibnizIndex(table), name)
    ran = []
    kernel = liealg._leibniz_failures

    def recording(index, scans):
        scans = list(scans)
        ran.extend(scans)
        return kernel(index, scans)

    monkeypatch.setattr(liealg, "_leibniz_failures", recording)
    assert validate_table(backwards) == ValidationReport(True, True, True, [], [])
    assert ran and all(lo == -1 for _, lo in ran)
