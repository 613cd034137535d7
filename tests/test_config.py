"""The config keys and defaults that the README documents are the ones the code uses."""

import itertools
from pathlib import Path

import pytest

from skewbench.config import (KNOWN_KEYS, build_classifier, build_experiment_spec,
                              build_gen_spec, build_method)
from skewbench.resample import METHOD_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"

# The key set before keys were derived from the dataclass fields.
EXPECTED_KEYS = {
    "gen.n_samples", "gen.ratio", "gen.dims", "gen.minority_subclusters",
    "gen.majority_subclusters", "gen.sub_sigma", "gen.box",
    "gen.min_center_separation", "gen.disturbance_ratio", "gen.rare_fraction", "gen.seed",
    "exp.subclusters", "exp.sizes", "exp.ratios", "exp.disturbances",
    "exp.methods", "exp.classifiers", "exp.folds", "exp.repeats", "exp.seed",
    "knn.k", "tree.max_depth", "tree.min_leaf",
    "smote.k", "smote.amount_pct", "ncr.k", "sparsity.alpha", "sparsity.scope",
}


def readme_key_table() -> list[tuple[str, str]]:
    """(key, default) pairs of the README's config-key table."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    pairs = []
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines[start:]):
        keys, defaults = line.strip("|").split("|")[:2]
        keys = [k.strip(" `") for k in keys.split(" / ")]
        defaults = [d.strip(" `") for d in defaults.split(" / ")]
        assert len(keys) == len(defaults), line
        pairs += zip(keys, defaults)
    return pairs


def build_for(key: str, cfg: dict[str, str]):
    group = key.split(".")[0]
    if group == "gen":
        return build_gen_spec(cfg)
    if group == "exp":
        return build_experiment_spec(cfg)
    build = build_method if group in METHOD_NAMES else build_classifier
    return build(group, cfg)


def test_known_keys_unchanged():
    assert KNOWN_KEYS == EXPECTED_KEYS


def test_readme_names_exactly_the_known_keys():
    keys = [key for key, _ in readme_key_table()]
    assert len(keys) == len(set(keys))
    assert set(keys) == KNOWN_KEYS


@pytest.mark.parametrize("key,default", readme_key_table())
def test_readme_default_is_the_code_default(key, default):
    assert build_for(key, {key: default}) == build_for(key, {})


# The template is checked as cell 0, not at GenSpec's default n_samples = 400,
# where 400 majority sub-clusters would not fit in 316 majority rows.
def test_template_checked_at_the_first_cell():
    spec = build_experiment_spec({"exp.sizes": "2000", "gen.majority_subclusters": "400"})
    assert (spec.template.n_samples, spec.template.majority_subclusters) == (2000, 400)
