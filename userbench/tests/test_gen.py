"""The seeded input generators: determinism and validity."""

import pytest

from ubench import gen


@pytest.fixture(scope="module")
def catalog():
    return gen.catalog_from_program()


@pytest.mark.parametrize("kind", ["serve-distinct", "serve-shared"])
def test_same_seed_same_stream(kind, catalog):
    a = gen.ServeStream(7, kind, catalog).items(120)
    b = gen.ServeStream(7, kind, catalog).items(120)
    c = gen.ServeStream(8, kind, catalog).items(120)
    assert a == b
    assert a != c


@pytest.mark.parametrize("kind", ["serve-distinct", "serve-shared"])
def test_every_request_is_valid(kind, catalog):
    from repro.serve.protocol import validate_request
    from repro.workloads import get

    for item in gen.ServeStream(gen.DEFAULT_SEED, kind, catalog).items(200):
        request = validate_request(item["request"])
        for n in request.n:
            get(request.workload).validate_n(n)


def test_distinct_stream_shape(catalog):
    stream = gen.ServeStream(gen.HELD_OUT_SEED, "serve-distinct", catalog)
    items = stream.items(2 * stream.prefix)
    repeats = [i for i, item in enumerate(items) if item["repeat_of"] is not None]
    for i in repeats:
        target = items[i]["repeat_of"]
        # Only an earlier original is copied, and copied exactly.
        assert target < i and items[target]["repeat_of"] is None
        assert items[i]["request"] == items[target]["request"]
    originals = [item["request"] for item in items if item["repeat_of"] is None]
    assert len({r["seed"] for r in originals}) == len(originals)
    assert len(repeats) / len(items) == 0.25
    fast = sum(r["fast"] for r in originals) / len(originals)
    assert fast == pytest.approx(2 / 3)
    assert {r["workload"] for r in originals} == set(catalog)


def test_shared_stream_reuses_a_small_pool(catalog):
    stream = gen.ServeStream(3, "serve-shared", catalog)
    items = stream.items(2 * stream.prefix)
    tuples = {(r["platform"], r["workload"], r["n"][0], r["seed"])
              for r in (item["request"] for item in items)}
    assert len(tuples) == 2 * len(catalog)
    variants = {("alphas" in r, "levels" in r, r["fast"])
                for r in (item["request"] for item in items)}
    assert len(variants) == 4
    defaults = [r for r in (item["request"] for item in items)
                if "alphas" not in r and "levels" not in r]
    # Two default-grid variants of eight for every pool tuple.
    assert len(defaults) == len(items) // 4


def test_warmup_seeds_never_generated(catalog):
    warm = {r["seed"] for r in gen.warmup_requests(2)}
    for kind in ("serve-distinct", "serve-shared"):
        items = gen.ServeStream(1, kind, catalog).items(300)
        assert not warm & {item["request"]["seed"] for item in items}


def test_cli_order_only_permutes():
    ids = ["table1", "fig7", "fig8", "fig10", "figw", "ext1"]
    order = gen.cli_order(5, ids)
    assert sorted(order["untraced"]) == sorted(ids)
    assert sorted(order["traced"]) == sorted(gen.TRACED_IDS)
    assert order == gen.cli_order(5, ids)


@pytest.mark.parametrize("kind", ["serve-distinct", "serve-shared"])
def test_prefix_mix_is_the_same_for_every_seed(kind, catalog):
    def mix(seed):
        stream = gen.ServeStream(seed, kind, catalog)
        shapes = [
            (r["platform"], r["workload"], r["n"][0], r["fast"],
             "alphas" in r, "levels" in r)
            for r in (item["request"] for item in stream.items(stream.prefix)
                      if item["repeat_of"] is None)
        ]
        return sorted(shapes)

    assert mix(1) == mix(2) == mix(gen.HELD_OUT_SEED)


@pytest.mark.parametrize("kind", ["serve-distinct", "serve-shared"])
def test_hands_are_the_same_for_every_seed(kind, catalog):
    """Every seed deals the same hands in the same order; it shuffles
    only within a hand."""
    size = len(catalog) if kind == "serve-distinct" else len(gen.SHARED_VARIANTS)

    def hands(seed):
        stream = gen.ServeStream(seed, kind, catalog)
        shapes = [
            (r["platform"], r["workload"], r["n"][0], r["fast"],
             len(r.get("alphas", ())), len(r.get("levels", ())))
            for r in (item["request"] for item in stream.items(stream.prefix)
                      if item["repeat_of"] is None)
        ]
        return [sorted(shapes[i:i + size]) for i in range(0, len(shapes), size)]

    first = hands(1)
    assert first == hands(2) == hands(gen.HELD_OUT_SEED)
    for hand in first:
        slow = sum(not fast for _p, _w, _n, fast, _a, _l in hand)
        if kind == "serve-distinct":
            assert sorted(w for _p, w, _n, _f, _a, _l in hand) == sorted(catalog)
            assert slow == len(hand) // 3
        else:
            assert slow == 1


def test_stream_parts_differ(catalog):
    a = gen.ServeStream(1, "serve-distinct", catalog).items(40)
    b = gen.ServeStream(1, "serve-distinct", catalog, part=1).items(40)
    assert a != b
    assert a == gen.ServeStream(1, "serve-distinct", catalog, part=0).items(40)
