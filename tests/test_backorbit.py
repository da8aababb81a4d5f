import math

import pytest

from arborist.backorbit import MAX_PIXELS, RenderConfig, points_csv, render, sample_backward

BASILICA = complex(-0.75, 0.0)
HALF = complex(0.5, 0.0)


def escape_radius(c):
    return 1.0 + math.sqrt(1.0 + abs(c))


class TestRenderConfig:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RenderConfig(width=0)
        with pytest.raises(ValueError):
            RenderConfig(bounds=(0.0, 0.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            RenderConfig(n_points=0)
        with pytest.raises(ValueError):
            RenderConfig(burn_in=-1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"bounds": (-math.inf, 1.0, 0.0, 1.0)}, "finite"),
            ({"bounds": (0.0, 1.0, 0.0, math.nan)}, "finite"),
            ({"width": 4, "bounds": (0.0, 1e-320, 0.0, 1.0)}, "too narrow"),
            ({"bounds": (-1e308, 1e308, 0.0, 1.0)}, "too far apart"),
            ({"width": MAX_PIXELS, "height": 2}, "MAX_PIXELS"),
        ],
        ids=["inf-bound", "nan-bound", "scale-overflow", "scale-zero", "too-many-pixels"],
    )
    def test_rejects_what_cannot_be_drawn(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RenderConfig(**kwargs)


class TestSampler:
    def test_deterministic_for_fixed_seed(self):
        cfg = RenderConfig(seed=42, n_points=5000)
        first = sample_backward(BASILICA, HALF, cfg)
        second = sample_backward(BASILICA, HALF, cfg)
        assert first == second

    def test_distinct_seeds_differ(self):
        a = sample_backward(BASILICA, HALF, RenderConfig(seed=1, n_points=500))
        b = sample_backward(BASILICA, HALF, RenderConfig(seed=2, n_points=500))
        assert a != b

    def test_point_count_and_burn_in(self):
        cfg = RenderConfig(seed=3, n_points=123, burn_in=7)
        assert len(sample_backward(BASILICA, HALF, cfg)) == 123

    def test_preimage_identity(self):
        cfg = RenderConfig(seed=42, n_points=4000, burn_in=0)
        points = sample_backward(BASILICA, HALF, cfg)
        prev = HALF
        for z in points:
            assert abs(z * z + BASILICA - prev) < 1e-9
            prev = z

    def test_escape_bound(self):
        cfg = RenderConfig(seed=42, n_points=5000)
        bound = escape_radius(BASILICA)
        for z in sample_backward(BASILICA, HALF, cfg):
            assert abs(z) <= bound

    def test_unit_circle_for_pure_squaring(self):
        cfg = RenderConfig(seed=11, n_points=2000)
        for z in sample_backward(complex(0), complex(1), cfg):
            assert abs(abs(z) - 1.0) < 1e-9


class TestRender:
    def test_empty_points_all_zero(self):
        cfg = RenderConfig(width=10, height=8)
        image = render([], cfg)
        header = f"P5\n10 8\n255\n".encode("ascii")
        assert image == header + bytes(80)

    def test_single_point_at_center(self):
        cfg = RenderConfig(width=9, height=9, bounds=(-1.0, 1.0, -1.0, 1.0))
        image = render([complex(0, 0)], cfg)
        pixels = image[len(b"P5\n9 9\n255\n") :]
        assert pixels.count(255) == 1

    def test_points_that_do_not_scale_to_a_number_are_dropped(self):
        # 1e150 pixels-per-unit times 4e300 overflows to inf; NaN compares false
        cfg = RenderConfig(width=4, height=4, bounds=(0.0, 1e-300, 0.0, 1.0))
        points = [complex(1e150, 0.5), complex(math.nan, 0.5), complex(0.0, -math.inf)]
        assert render(points, cfg).endswith(bytes(16))

    def test_out_of_bounds_points_dropped(self):
        cfg = RenderConfig(width=4, height=4, bounds=(-1.0, 1.0, -1.0, 1.0))
        image = render([complex(5, 5), complex(-2, 0)], cfg)
        assert image.endswith(bytes(16))

    def test_basilica_lights_many_pixels(self):
        cfg = RenderConfig(seed=42, n_points=50_000)
        points = sample_backward(BASILICA, HALF, cfg)
        image = render(points, cfg)
        pixels = image[len(b"P5\n800 800\n255\n") :]
        assert pixels.count(255) >= 1000


class TestCsv:
    def test_rows_round_trip(self):
        rows = points_csv([complex(0.5, -0.25), complex(1, 2)]).splitlines()
        assert len(rows) == 2
        re_part, im_part = rows[0].split(",")
        assert float(re_part) == 0.5 and float(im_part) == -0.25
