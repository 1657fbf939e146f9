import io
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, settings

from galmine import BinaryContext, GenSpec, parse_tab, random_context
from galmine.cli import main

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

K4_TAB = "a b c\na b\na c d\nb c\n"

RULE_RECORD = '{"premise": ["a"], "consequent": ["b"], "support": 3, "confidence": 0.5, "lift": 1.0, "conviction": null}'

# one JSON-lines rule record per way a record could once escape ParseError
BAD_RULE_RECORDS = {
    "infinite-support": RULE_RECORD.replace('"support": 3', '"support": Infinity'),
    "huge-confidence": RULE_RECORD.replace('"confidence": 0.5', '"confidence": ' + "9" * 400),
    "deep-nesting": "[" * 100_000,
    "empty-consequent": RULE_RECORD.replace('["b"]', "[]"),
    "overlap": RULE_RECORD.replace('["b"]', '["a", "b"]'),
    "string-premise": RULE_RECORD.replace('["a"]', '"ac"'),
    "number-label": RULE_RECORD.replace('["b"]', "[1]"),
    "fractional-support": RULE_RECORD.replace('"support": 3', '"support": 2.9'),
    "boolean-support": RULE_RECORD.replace('"support": 3', '"support": true'),
    "negative-support": RULE_RECORD.replace('"support": 3', '"support": -7'),
    "nan-confidence": RULE_RECORD.replace('"confidence": 0.5', '"confidence": NaN'),
    "zero-confidence": RULE_RECORD.replace('"confidence": 0.5', '"confidence": 0'),
    "confidence-above-one": RULE_RECORD.replace('"confidence": 0.5', '"confidence": 1.5'),
    "boolean-confidence": RULE_RECORD.replace('"confidence": 0.5', '"confidence": true'),
    "negative-lift": RULE_RECORD.replace('"lift": 1.0', '"lift": -1e308'),
    "infinite-lift": RULE_RECORD.replace('"lift": 1.0', '"lift": Infinity'),
    "negative-conviction": RULE_RECORD.replace('"conviction": null', '"conviction": -0.5'),
    "nan-conviction": RULE_RECORD.replace('"conviction": null', '"conviction": NaN'),
}


def cli_bytes(argv) -> tuple[int, bytes]:
    """Exit code and stdout bytes of ``galmine *argv`` run in-process.
    stdout is an ASCII text layer over bytes, so a write through the text
    layer instead of ``sys.stdout.buffer`` fails or shows as a mismatch."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with redirect_stdout(out):
        code = main(list(argv))
    out.flush()
    return code, out.buffer.getvalue()


@pytest.fixture
def k4() -> BinaryContext:
    return parse_tab(K4_TAB)


def seeded_corpus(count: int, max_objects: int = 12, max_attributes: int = 8, densities=(0.2, 0.5, 0.8)):
    """Deterministic spread of random contexts for corpus-style checks."""
    out = []
    for seed in range(count):
        spec = GenSpec(
            rows=1 + seed % max_objects,
            cols=1 + (seed // 3) % max_attributes,
            density=densities[seed % len(densities)],
            seed=seed,
        )
        out.append(random_context(spec))
    return out
