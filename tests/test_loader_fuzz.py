"""Fuzzed JSON documents against the loaders and the CLI's input boundary.

Whatever a document holds, the loaders either build their object or raise
``ValueError``, and the CLI ends in exit code 0, 1 or 2 with at most one
``error:`` line on stderr, never a traceback.
"""

import contextlib
import io
import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr.cli import _coords_from_dict, main
from spincorr.harness import MEASURE_MODES, PROPERTIES, SEARCH_TARGETS
from spincorr.serialize import measure_from_dict, rate_table_from_dict
from spincorr.three_site import COORDINATES

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "1e400", "1e-400", "3/4", "nan", "inf", "x", ""]),
    st.text(max_size=4),
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


def mostly(good):
    # near misses: nine in ten values are well formed, so documents get past
    # the first check often enough to reach the later ones
    return st.integers(0, 9).flatmap(lambda k: good if k else scalars)


def sized_lists(sizes, elements):
    return st.sampled_from(sizes).flatmap(lambda size: st.lists(elements, min_size=size, max_size=size))


def one_in_four(bad, good):
    return st.sampled_from([good, good, good, bad]).flatmap(lambda kind: kind)


values = mostly(st.sampled_from(["0", "1", "1/2", "3/4", "1e400"]) | st.integers(0, 3))
measures = st.fixed_dictionaries(
    {"weights": mostly(sized_lists([0, 1, 2, 3, 4, 8], values))},
    optional={"n": st.integers(0, 7) | scalars, "mode": mostly(st.sampled_from(["exact", "float", "x"]))},
)


def explicit_table(n):
    rows = mostly(st.dictionaries(st.sampled_from([str(x) for x in range(n + 1)]),
                                  mostly(sized_lists([1 << n, 3], values)), min_size=n))
    return st.fixed_dictionaries({"n": mostly(st.just(n)), "beta": rows, "delta": rows})


def rate_tables(top_site):
    sites = st.integers(-1, top_site)
    return st.integers(1, 3).flatmap(explicit_table) | st.fixed_dictionaries(
        {"model": st.just("contact"), "edges": mostly(st.lists(mostly(sized_lists([2, 3], sites)), max_size=3))},
        optional={"lambda": values, "delta": values, "n": mostly(sites)},
    )


def generic_table(n):
    """Well-formed rate tables on n sites, so documents reach the dynamics:
    small rates, and in one table of three some rates large enough that
    lambda*t runs into the trillions and beyond."""
    small = st.sampled_from(["0", "1", "2", "1/2", "3/4"])
    large = small | st.sampled_from(["1e12", str(2**62)])

    def table(rate):
        rows = st.fixed_dictionaries({str(x): sized_lists([1 << n], rate) for x in range(n)})
        return st.fixed_dictionaries({"n": st.just(n), "beta": rows, "delta": rows})

    return st.sampled_from([small, small, large]).flatmap(table)


rates = rate_tables(4)
coordinates = st.fixed_dictionaries(
    {"a": values},
    optional={name: mostly(values) for name in list(COORDINATES)[1:]},
) | st.fixed_dictionaries({name: values for name in COORDINATES})
# one kind in four each (st.one_of would weigh the kinds by their branch counts)
anything = st.sampled_from([documents, measures, rates, coordinates]).flatmap(lambda kind: kind)


@settings(max_examples=300, deadline=None)
@given(anything)
def test_loaders_raise_only_value_error(doc):
    for loader in (measure_from_dict, rate_table_from_dict, _coords_from_dict):
        if loader is _coords_from_dict and not isinstance(doc, dict):
            continue
        try:
            loader(doc)
        except ValueError:
            pass


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


# each command line ends in the option that takes the document's path
classify3 = ["classify3", "--input"]
check_rates = ["check-rates", "--input"]
check_measure = ["check-measure", "--budget", "5", "--input"]


def float_weights(n):
    """Float product measures, whose closed-form slacks are rounding noise
    around 0, and arbitrary float weights."""
    products = st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n).map(
        lambda ps: [prod(p if c >> x & 1 else 1 - p for x, p in enumerate(ps)) for c in range(1 << n)])
    return products | sized_lists([1 << n], st.floats(0.001, 1))


# one time in four: float two- and three-site weights at tolerance 0
check_measure_inputs = one_in_four(
    st.tuples(st.just(["check-measure", "--budget", "5", "--tolerance", "0", "--input"]),
              st.sampled_from([2, 3]).flatmap(float_weights).map(lambda w: {"weights": w})),
    st.tuples(st.just(check_measure), measures),
)
# past the first case's 49 grid points, so a negative derivative gets
# confirmed by evolving the candidate measure
search = st.sampled_from(SEARCH_TARGETS).map(
    lambda target: ["search", "--target", target, "--budget", "60", "--system"]
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.just(classify3), measures | coordinates)
       | st.tuples(st.just(check_rates), rates)
       | check_measure_inputs
       | st.tuples(search, st.integers(1, 4).flatmap(generic_table) | rate_tables(3))  # n <= 4
       | st.tuples(st.sampled_from([classify3, check_rates, check_measure]) | search, anything))
def test_cli_ends_in_an_exit_code(doc_path, command_and_doc):
    command, doc = command_and_doc
    doc_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*command, str(doc_path)])
    assert code in (0, 1, 2)
    text = err.getvalue()
    assert (code == 2) == bool(text), text
    assert text == "" or (text.startswith("error: ") and text.count("\n") == 1), text


def sized_inputs(n):
    weights = st.sampled_from(["1", "1/2", "3/4", "0"]) | st.integers(0, 3)
    measure = st.fixed_dictionaries(
        {"weights": sized_lists([1 << n], weights)},
        optional={"mode": st.sampled_from(["exact", "float"])},
    )
    system = st.sampled_from([generic_table(n), generic_table(n), explicit_table(n), rate_tables(n - 1)])
    return st.tuples(measure, system.flatmap(lambda kind: kind))


# three in four: a measure and a rate table of one size, n <= 4
evolve_inputs = one_in_four(
    st.tuples(measures | anything, rate_tables(3) | anything), st.integers(1, 4).flatmap(sized_inputs)
)
# short, medium and long horizons and zero; three in four well formed
evolve_times = one_in_four(
    st.sampled_from(["-1", "nan", "inf", "x", "", "1,,-1"]),
    st.lists(st.sampled_from(["0", "0.5", "10", "1e6", "1e12"]), min_size=1, max_size=3).map(",".join),
)


@settings(max_examples=200, deadline=None)
@given(evolve_inputs, evolve_times)
def test_evolve_ends_in_an_exit_code(doc_path, inputs, times):
    measure, rate_doc = inputs
    doc_path.write_text(json.dumps(measure))
    system_path = doc_path.with_name("system.json")
    system_path.write_text(json.dumps(rate_doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evolve", "--input", str(doc_path), "--system", str(system_path), f"--t={times}"])
    assert code in (0, 2)
    text = err.getvalue()
    assert (code == 2) == bool(text), text
    assert text == "" or (text.startswith("error: ") and text.count("\n") == 1), text


# one initial measure of a family, a short time list, and in one run of
# four a negative budget or a tolerance that is not finite and nonnegative
verify_options = st.tuples(
    st.sampled_from(PROPERTIES),
    st.sampled_from(MEASURE_MODES),
    st.lists(st.sampled_from(["0", "0.5", "2", "10"]), min_size=1, max_size=2).map(",".join),
    one_in_four(
        st.sampled_from([["--budget=-1"], ["--tolerance=nan"], ["--tolerance=inf"], ["--tolerance=-1e-9"]]),
        st.sampled_from([[], ["--budget=0"], ["--budget=3"], ["--tolerance=0"], ["--tolerance=1e-6"]]),
    ),
)


@settings(max_examples=100, deadline=None)
@given(one_in_four(rate_tables(3) | anything, st.integers(1, 4).flatmap(generic_table)), verify_options)
def test_verify_theorem_ends_in_an_exit_code(doc_path, rate_doc, options):
    prop, family, times, extra = options
    doc_path.write_text(json.dumps(rate_doc))
    argv = ["verify-theorem", "--system", str(doc_path), "--property", prop, "--family", family,
            "--count", "1", f"--t={times}", *extra]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    text = err.getvalue()
    assert (code == 2) == bool(text), text
    assert text == "" or (text.startswith("error: ") and text.count("\n") == 1), text
