"""Robustness fuzzing: garbage input must fail cleanly, never crash.

Every failure mode of the lexer/parser/analyzer on arbitrary text must be
a :class:`ReproError` subclass (so the CLI's single except clause covers
everything), never a raw ``IndexError``/``RecursionError``/etc.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import AttributeDomains
from repro.sqlts.lexer import tokenize
from repro.sqlts.parser import parse_query
from repro.sqlts.semantic import analyze

DOMAINS = AttributeDomains.prices()


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=120))
def test_lexer_never_crashes(text):
    try:
        tokens = tokenize(text)
    except ReproError:
        return
    assert tokens[-1].type.value == "eof"


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=120))
def test_parser_never_crashes(text):
    try:
        parse_query(text)
    except ReproError:
        pass


# Structured near-miss fuzz: SQL-ish fragments shuffled together are far
# more likely to reach deep parser states than raw unicode noise.
_FRAGMENTS = [
    "SELECT", "FROM", "WHERE", "CLUSTER BY", "SEQUENCE BY", "AS", "AND",
    "OR", "NOT", "FIRST", "LAST", "(", ")", ",", ".", "*", "X", "Y",
    "price", "date", "quote", "1.5", "'IBM'", "<", ">", "=", "+", "previous",
    # Non-ASCII digits where a number may stand (arbitrary text seldom
    # puts one there): they must fail as syntax errors, never crash.
    "²", "٣", "1e٣",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=25))
def test_sql_fragment_soup_never_crashes(fragments):
    text = " ".join(fragments)
    try:
        query = parse_query(text)
    except ReproError:
        return
    # If it parsed, analysis must also either succeed or fail cleanly.
    try:
        analyzed = analyze(query, DOMAINS)
    except ReproError:
        return
    compile_pattern(analyzed.spec)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="SELECTFROMWHEREASandor()*.,'<>=+-0123456789 \n", max_size=200))
def test_keywordish_noise_never_crashes(text):
    try:
        analyze(parse_query(text), DOMAINS)
    except ReproError:
        pass
