"""The in-repo fixture corpus: classical measures and systems as JSON."""

from __future__ import annotations

import os
from fractions import Fraction

from .dynamics import RateTable, path_edges
from .harness import (
    corner_flip_system,
    crossed_birth_pair,
    derangement_measure,
    implication_gap_measures,
    supermodular_single_birth,
)
from .measures import WeightVector
from .serialize import dumps, measure_to_dict, rate_table_to_dict


def fixture_corpus() -> dict[str, dict]:
    """Name -> JSON document for every shipped fixture."""
    gap_first, gap_second = implication_gap_measures(Fraction(1, 100))
    docs = {}

    def measure(name, vector: WeightVector, description):
        docs[name] = {**measure_to_dict(vector), "description": description}

    def system(name, table, description):
        docs[name] = {**rate_table_to_dict(table), "description": description}

    measure(
        "derangement3",
        derangement_measure(3),
        "non-fixed-point indicators of a uniform permutation of 3 points",
    )
    measure(
        "derangement4",
        derangement_measure(4),
        "non-fixed-point indicators of a uniform permutation of 4 points",
    )
    measure(
        "gap_lattice_vs_dca",
        gap_first,
        "three-site weights (eps = 1/100) that are conditionally associated "
        "but fail the lattice condition",
    )
    measure(
        "gap_downward_fkg_vs_association",
        gap_second,
        "three-site weights (eps = 1/100) that are associated but not downward FKG",
    )
    docs["contact_path4"] = {
        "model": "contact",
        "n": 4,
        "edges": [list(e) for e in path_edges(4)],
        "lambda": "1",
        "delta": "1",
        "description": "contact process on the four-site path, unit rates",
    }
    system(
        "corner_flip3",
        corner_flip_system(),
        "births only one step below full occupation, deaths only one step "
        "above empty; preserves the lattice condition without independent flips",
    )
    system(
        "independent_flips3",
        RateTable.independent_flips(3, (1, Fraction(1, 2), 2), (1, 1, Fraction(1, 3))),
        "three sites flipping independently at fixed rates",
    )
    system(
        "crossed_birth_pair",
        crossed_birth_pair(),
        "two sites, each born at rate one minus the other's spin; not attractive",
    )
    system(
        "supermodular_single_birth3",
        supermodular_single_birth(),
        "single birth rate equal to the product of the other two spins; "
        "increasing but not submodular",
    )
    return docs


def write_fixtures(directory: str) -> list[str]:
    """Write the corpus as one JSON file per fixture; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, doc in sorted(fixture_corpus().items()):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps(doc))
        paths.append(path)
    return paths
