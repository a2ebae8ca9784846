"""Fuzzed JSON documents against the loaders and the CLI's input boundary.

Whatever a document holds, the loaders either build their object or raise
``ValueError``, and the CLI ends in exit code 0, 1 or 2 with at most one
``error:`` line on stderr, never a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr.cli import _coords_from_dict, main
from spincorr.harness import SEARCH_TARGETS
from spincorr.serialize import measure_from_dict, rate_table_from_dict
from spincorr.three_site import COORD_NAMES

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


rates = rate_tables(4)
coordinates = st.fixed_dictionaries(
    {"a": values},
    optional={name: mostly(values) for name in COORD_NAMES[1:]},
) | st.fixed_dictionaries({name: values for name in COORD_NAMES})
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
# One evaluation at most: a confirmation evolves the measure, and evolving
# at a large lambda*t does not end in useful time yet.
search = st.sampled_from(SEARCH_TARGETS).map(
    lambda target: ["search", "--target", target, "--budget", "1", "--system"]
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.just(classify3), measures | coordinates)
       | st.tuples(st.just(check_rates), rates)
       | st.tuples(st.just(check_measure), measures)
       | st.tuples(search, rate_tables(3))  # at most four sites
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
