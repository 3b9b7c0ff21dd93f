import numpy as np
import pytest

from mildns.fields import SpectralVectorField, dealias, leray_project
from mildns.grid import make_grid
from mildns.snapshots import load_field, load_trajectory, save_field, save_trajectory
from mildns.solver import ModelSpec, TimeGridSolution, etd_march, solve
from test_solver import MODELS, graded_times
from test_solver import random_field as solver_data


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralVectorField.from_physical(
        grid, rng.standard_normal((3,) + grid.physical_shape)
    )


def test_field_round_trip(tmp_path):
    g = make_grid(16, 3.5)
    f = random_field(g)
    path = tmp_path / "field.nsf"
    save_field(path, f, t=1.25)
    loaded, t = load_field(path)
    assert t == 1.25
    assert loaded.grid == g
    assert np.abs(loaded.to_physical() - f.to_physical()).max() < 1e-12


def test_header_is_ascii_first_line(tmp_path):
    g = make_grid(8, 1.0)
    path = tmp_path / "field.nsf"
    save_field(path, random_field(g), t=0.5)
    header = open(path, "rb").readline().decode("ascii")
    assert header.startswith("NSF1 n=8 L=1.0 t=0.5 components=3")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.nsf"
    path.write_bytes(b"NOPE n=8\n" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_field(path)


@pytest.mark.parametrize(
    "header, message",
    [
        pytest.param("NSF1 n=8 L=1.0 t=0.0 junk", "tokens without '='", id="no-equals"),
        pytest.param("NSF1 L=1.0 t=0.0 components=3", "no n", id="no-n"),
        pytest.param("NSF1 n=-8 L=1.0 t=0.0 components=3", "at least 8", id="negative-n"),
        pytest.param("NSF1 n=8 L=nan t=0.0 components=3", "positive and finite", id="nan-box"),
    ],
)
def test_load_rejects_malformed_headers(tmp_path, header, message):
    path = tmp_path / "bad.nsf"
    path.write_bytes(header.encode("ascii") + b"\n" + b"\x00" * 64)
    with pytest.raises(ValueError, match=f"bad NSF1 header .*{message}"):
        load_field(path)


def test_load_rejects_truncated(tmp_path):
    g = make_grid(8, 1.0)
    path = tmp_path / "field.nsf"
    save_field(path, random_field(g))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError):
        load_field(path)


def test_trajectory_round_trip(tmp_path):
    g = make_grid(8, 2 * np.pi)
    times = graded_times(0.5, 4)
    u0 = leray_project(dealias(random_field(g, 1)))  # solver data: solenoidal, in the band
    u0.coeffs[:, 0, 0, 0] = 0.0
    traj = etd_march(u0, ModelSpec("ns", g), times)
    manifest = save_trajectory(tmp_path / "run", traj, "ns", kappa=0.0, ell=None)
    assert manifest["grid"] == {"n": 8, "L": 2 * np.pi}
    lt, fields, m2 = load_trajectory(tmp_path / "run")
    assert np.allclose(lt, times)
    assert m2["model"] == "ns"
    assert all(f.grid is fields[0].grid for f in fields)  # one grid, one k^2 array
    for i, f in enumerate(fields):
        assert np.abs(f.to_physical() - traj.node(i).to_physical()).max() < 1e-12


def test_trajectory_records_residuals(tmp_path):
    g = make_grid(8, 2 * np.pi)
    times = np.array([0.0, 0.1])
    traj = TimeGridSolution.zeros(g, times)
    traj.meta["residuals"] = [0.25, 0.01]
    manifest = save_trajectory(tmp_path / "run", traj, "ns")
    assert manifest["residuals"] == [0.25, 0.01]


@pytest.mark.parametrize("kind, kwargs", MODELS)
def test_solve_restarts_from_a_saved_node(tmp_path, kind, kwargs):
    # the product-integration step from node m is the same from either start, so
    # only round-off and the two solves' Picard budgets part the later nodes; over
    # 16^3 and 32^3, three seeds and restarts at nodes 1, 4, 8 and 12 they moved
    # by at most 1.2e-10 of max ||u||_2
    g = make_grid(16, 2 * np.pi)
    model = ModelSpec(kind, g, **kwargs)
    times = graded_times(2.0, 16)
    full = solve(model, solver_data(g, 2.0, seed=3), times)
    m = 4
    save_field(tmp_path / "node.nsf", full.node(m), times[m])
    loaded, t = load_field(tmp_path / "node.nsf")  # not cleaned: round-off on every mode
    later = solve(model, loaded, times[m:] - t)
    moved = max(
        SpectralVectorField(g, later.coeffs[k] - full.coeffs[m + k]).l2_norm()
        for k in range(len(later.times))
    )
    assert moved <= 1e-9 * full.max_l2()
