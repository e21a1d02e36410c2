"""The `height-check` task: the height-theory axioms for a probe v."""

from . import SHORTFALLS, _shortfall, _terms


def run_height_check(ring, cfg, rng):
    from ..analyzers import check_height_theory
    from ..errors import ConfigError
    from ..laurent import LaurentSeries
    if "v_terms" not in cfg:
        raise ConfigError("height-check needs v_terms")
    terms = _terms("task parameter", "v_terms", cfg["v_terms"], ring.base.f)
    expected = cfg.get("expected_expansion")
    if expected is not None:
        expected = _terms("task parameter", "expected_expansion", expected)
    try:
        # a probe term at or above the window, or an inverse that needs
        # more window than there is, is a precision shortfall
        return [check_height_theory(ring, LaurentSeries.from_terms(
            ring.base, terms, ring.window), expected)]
    except SHORTFALLS as exc:
        return [_shortfall("height-check", ring, exc)]
