import numpy as np
import pytest

from gridlq import (
    GridLayout,
    GridLQError,
    InvalidProblemError,
    build_stacked,
    generate_irrigation_case,
    generate_msd_case,
    grid_problem,
    load_problem,
    save_problem,
    validate,
)
from gridlq.grid_problem import DIRECTIONS, EULER_STEP, problem_from_dict, problem_to_dict

from conftest import make_boundary_problem, make_padded_tiny_q_problem, make_uncoupled_problem


def coupled_directions(sub):
    return [d for d in DIRECTIONS if sub.coupling(d) is not None]


def problems_equal(a, b):
    if (a.K, a.N, a.T) != (b.K, b.N, b.T):
        return False
    for i in range(a.K):
        for j in range(a.N):
            sa, sb = a.sub(i, j), b.sub(i, j)
            if (sa.n, sa.m) != (sb.n, sb.m):
                return False
            for name in ("A", "B", "Q", "R"):
                for x, y in zip(getattr(sa, name), getattr(sb, name)):
                    if not np.array_equal(np.asarray(x), np.asarray(y)):
                        return False
            for d in DIRECTIONS:
                ca, cb = sa.coupling(d), sb.coupling(d)
                if (ca is None) != (cb is None):
                    return False
                if ca is not None and any(
                    not np.array_equal(np.asarray(x), np.asarray(y))
                    for x, y in zip(ca, cb)
                ):
                    return False
    for i in range(a.K):
        for j in range(a.N):
            if not np.array_equal(
                np.asarray(a.boundary.init[i][j]), np.asarray(b.boundary.init[i][j])
            ):
                return False
    for d in DIRECTIONS:
        ta, tb = getattr(a.boundary, d), getattr(b.boundary, d)
        if (ta is None) != (tb is None):
            return False
        if ta is not None:
            for sa, sb in zip(ta, tb):
                if any(not np.array_equal(np.asarray(x), np.asarray(y))
                       for x, y in zip(sa, sb)):
                    return False
    return True


class TestValidate:
    def test_generator_output_is_valid(self):
        assert validate(generate_msd_case(2, 2, 2, seed=0)) == []
        assert validate(generate_irrigation_case(2, 3, 2)) == []

    @pytest.mark.parametrize("case", ["indefinite_q", "indefinite_r", "asymmetric_q",
                                      "deep_q", "padded_tiny_q"])
    def test_flags_indefinite_cost(self, case):
        p = generate_msd_case(2, 2, 2, seed=0)
        if case == "indefinite_q":
            p.sub(1, 0).Q[1] = -np.eye(4)
            want = ["subsystem (1, 0): Q[1]: not positive definite"]
        elif case == "indefinite_r":
            p.sub(1, 0).R[1] = np.diag([1.0, -1.0])
            want = ["subsystem (1, 0): R[1]: not positive definite"]
        elif case == "asymmetric_q":
            p.sub(0, 1).Q[2] = np.eye(4) + np.triu(np.ones((4, 4)), 1)
            want = ["subsystem (0, 1): Q[2]: not symmetric"]
        elif case == "deep_q":
            # one bad weight among K * N * (T + 1) = 75
            p = generate_msd_case(5, 3, 4, seed=0)
            p.sub(3, 2).Q[3] = np.diag([1.0, 1.0, 0.0, 1.0])
            want = ["subsystem (3, 2): Q[3]: not positive definite"]
        else:
            # SPD as given; build_stacked factors it unit-padded and fails
            p = make_padded_tiny_q_problem()
            want = [f"subsystem (0, 0): Q[{t}]: not positive definite" for t in range(3)]
        assert validate(p) == want
        with pytest.raises(InvalidProblemError):
            build_stacked(p)

    @pytest.mark.parametrize("declared", ["n", "T"])
    def test_declared_size_is_checked_before_anything_is_sized_by_it(self, declared,
                                                                     monkeypatch):
        # stacks sized from n = 10**5 or T = 10**8 would need terabytes, so
        # the padded layout they are sized by must not even be made
        def unsized(*args):
            raise AssertionError("padded layout made before the checks passed")

        monkeypatch.setattr(grid_problem, "Padding", unsized)
        p = generate_msd_case(2, 2, 2, seed=0)
        if declared == "n":
            p.sub(0, 0).n = 10**5
            want = "subsystem (0, 0): A[0] shape (4, 4), expected (100000, 100000)"
        else:
            p.T = 10**8
            want = "subsystem (0, 0): A has 2 stages, expected 100000000"
        msgs = validate(p)
        assert want in msgs
        with pytest.raises(InvalidProblemError):
            build_stacked(p)

    def test_valid_problem_factors_two_batches(self, monkeypatch):
        shapes = []
        factor = grid_problem.dense_cholesky
        monkeypatch.setattr(grid_problem, "dense_cholesky",
                            lambda m: shapes.append(np.shape(m)) or factor(m))
        assert validate(generate_msd_case(4, 4, 4, seed=0)) == []
        assert shapes == [(5, 4, 4, 4, 4), (4, 4, 4, 2, 2)]

    @pytest.mark.parametrize("field", ["A", "B", "Q", "R"])
    def test_flags_missing_matrix_list(self, field):
        p = generate_msd_case(2, 2, 2, seed=0)
        setattr(p.sub(0, 1), field, None)
        assert validate(p) == [f"subsystem (0, 1): {field} is missing"]

    def test_flags_matrices_that_are_not_numbers(self):
        p = generate_msd_case(2, 2, 2, seed=0)
        p.sub(0, 1).A = [np.full((4, 4), "x")] * p.T
        assert validate(p) == ["subsystem (0, 1): A holds entries that are not numbers"]

    def test_flags_coupling_dimension(self):
        p = generate_msd_case(2, 3, 2, seed=0)
        p.sub(0, 1).west = [np.zeros((4, 3))] * p.T
        msgs = validate(p)
        assert any("(0, 1)" in m and "west" in m for m in msgs)

    def test_flags_bad_grid_dims(self):
        p = generate_msd_case(1, 1, 1, seed=0)
        p.T = 0
        assert validate(p)

    def test_flags_boundary_block_without_data(self):
        p = generate_msd_case(1, 2, 1, seed=0)
        p.sub(0, 0).west = [np.zeros((4, 4))]
        msgs = validate(p)
        assert any("boundary" in m for m in msgs)

    def test_boundary_problem_valid(self):
        assert validate(make_boundary_problem()) == []

    @pytest.mark.parametrize("corrupt", ["short", "empty", "scalar", "none", "init"])
    def test_flags_malformed_boundary_trajectory(self, corrupt):
        # the north coupling of (0, 1) reads trajectory north[1]; a bad one
        # is reported, never indexed, and so is an initial state
        p = generate_msd_case(2, 2, 2, seed=0)
        p.sub(0, 1).north = [np.eye(4)] * p.T
        p.boundary.north = [[np.zeros(4)] * p.T for _ in range(p.N)]
        want = "boundary.north"
        if corrupt == "short":
            p.boundary.north.pop()
        elif corrupt == "empty":
            p.boundary.north[1] = []
        elif corrupt == "scalar":
            p.boundary.north[1] = [np.float64(0.0)] * p.T
        elif corrupt == "none":
            p.boundary.north = [None] * p.N
            want = "boundary.north[1] is missing"
        else:
            p.boundary.init[0][1] = np.full(4, "x")
            want = "initial state (0, 1) holds entries that are not numbers"
        msgs = validate(p)
        assert any(want in m for m in msgs)

    def test_flags_non_finite_entries(self):
        p = make_boundary_problem()
        sub = p.sub(0, 1)
        sub.A = [a.copy() for a in sub.A]
        sub.A[1][0, 1] = np.nan
        sub.Q = [q.copy() for q in sub.Q]
        sub.Q[0][1, 1] = np.inf
        sub.south = [c.copy() for c in sub.south]
        sub.south[0][0, 0] = -np.inf
        p.sub(1, 0).B = [np.ones((2, 2))] + p.sub(1, 0).B[1:]
        p.boundary.init[1][0] = np.array([0.0, np.nan])
        p.boundary.west[1][1] = np.array([np.nan, 1.0])
        assert validate(p) == [
            "boundary.west[1][1] has non-finite entries",
            "subsystem (0, 1): A[1] has non-finite entries",
            "subsystem (0, 1): Q[0] has non-finite entries",
            "subsystem (0, 1): south coupling[0] has non-finite entries",
            "subsystem (1, 0): B[0] shape (2, 2), expected (2, 1)",
            "initial state (1, 0) has non-finite entries",
        ]


class TestMsdGenerator:
    def test_single_mass_euler_closed_form(self):
        p = generate_msd_case(1, 1, 1, seed=0)
        sub = p.sub(0, 0)
        assert coupled_directions(sub) == []
        rng = np.random.default_rng(0)
        mass, stiff, damp = rng.uniform(0.8, 1.5, size=3)
        a, b = 4 * stiff / mass, 4 * damp / mass
        a_cont = np.array(
            [[0, 1, 0, 0], [-a, -b, 0, 0], [0, 0, 0, 1], [0, 0, -a, -b]]
        )
        assert np.array_equal(sub.A[0], np.eye(4) + EULER_STEP * a_cont)
        assert np.array_equal(
            np.asarray(p.boundary.init[0][0]), rng.uniform(-1, 1, 4)
        )

    def test_same_seed_bitwise_identical(self):
        assert problems_equal(
            generate_msd_case(3, 2, 4, seed=11), generate_msd_case(3, 2, 4, seed=11)
        )

    def test_different_seed_differs(self):
        assert not problems_equal(
            generate_msd_case(2, 2, 2, seed=0), generate_msd_case(2, 2, 2, seed=1)
        )

    def test_corner_masses_have_two_neighbours(self):
        p = generate_msd_case(2, 2, 2, seed=7)
        for i in range(2):
            for j in range(2):
                assert len(coupled_directions(p.sub(i, j))) == 2
        assert validate(p) == []

    def test_parameter_range(self):
        p = generate_msd_case(3, 3, 2, seed=5)
        for i in range(3):
            for j in range(3):
                a_mat = p.sub(i, j).A[0]
                stiff_over_mass = -a_mat[1, 0] / EULER_STEP / 4
                assert 0.8 / 1.5 <= stiff_over_mass <= 1.5 / 0.8

    def test_weights(self):
        p = generate_msd_case(1, 1, 2, seed=0)
        assert np.array_equal(p.sub(0, 0).Q[2], np.eye(4))
        assert np.array_equal(p.sub(0, 0).R[1], 2 * np.eye(2))


class TestIrrigationGenerator:
    def test_single_pool_uncoupled(self):
        p = generate_irrigation_case(1, 1, 1)
        assert coupled_directions(p.sub(0, 0)) == []
        assert p.sub(0, 0).n == 4 and p.sub(0, 0).m == 1

    def test_no_east_or_north_coupling(self):
        p = generate_irrigation_case(3, 4, 2)
        for i in range(3):
            for j in range(4):
                assert p.sub(i, j).east is None
                assert p.sub(i, j).north is None

    def test_coupling_is_spanning_tree_from_head_pool(self):
        K = N = 2
        p = generate_irrigation_case(K, N, 2)
        edges = set()
        for i in range(K):
            for j in range(N):
                if p.sub(i, j).west is not None:
                    edges.add(frozenset({(i, j), (i, j - 1)}))
                if p.sub(i, j).south is not None:
                    edges.add(frozenset({(i, j), (i + 1, j)}))
        assert len(edges) == K * N - 1
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            node = frontier.pop()
            for e in edges:
                if node in e:
                    (other,) = e - {node}
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        assert seen == {(i, j) for i in range(K) for j in range(N)}

    def test_deterministic_default(self):
        assert problems_equal(
            generate_irrigation_case(2, 2, 2), generate_irrigation_case(2, 2, 2)
        )
        assert np.array_equal(
            np.asarray(generate_irrigation_case(2, 2, 1).boundary.init[1][1]),
            np.array([1.0 / 3.0, 0.0, 0.0, 0.0]),
        )

    def test_seed_randomizes_initial_states_only(self):
        base = generate_irrigation_case(2, 2, 2)
        seeded = generate_irrigation_case(2, 2, 2, seed=4)
        assert not problems_equal(base, seeded)
        assert np.array_equal(base.sub(1, 1).A[0], seeded.sub(1, 1).A[0])
        assert validate(seeded) == []


class TestStateOffsets:
    def test_single_subsystem_time_major(self):
        p = make_uncoupled_problem(K=1, N=1, T=3, n=2, m=1)
        lay = GridLayout(p)
        for t in range(4):
            assert lay.x_offset(0, 0, t) == t * 2
        assert lay.n_total == 8 and lay.m_total == 3

    def test_grid_offsets(self):
        p = generate_msd_case(2, 2, 2, seed=0)
        lay = GridLayout(p)
        assert lay.nbar == [8, 8]
        assert lay.nhat == 16
        assert lay.x_offset(1, 0, 0) == 4
        assert lay.x_offset(0, 1, 0) == 8
        assert lay.x_offset(0, 0, 1) == 16

    def test_inputs_have_no_terminal_stage(self):
        p = generate_msd_case(2, 2, 3, seed=0)
        lay = GridLayout(p)
        assert lay.m_total == lay.mhat * p.T
        last = lay.u_offset(1, 1, p.T - 1) + p.sub(1, 1).m
        assert last == lay.m_total


class TestProblemFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        p = generate_msd_case(2, 3, 2, seed=9)
        path = tmp_path / "problem.json"
        save_problem(p, path)
        assert problems_equal(load_problem(path), p)

    def test_round_trip_with_boundary_data(self, tmp_path):
        p = make_boundary_problem()
        path = tmp_path / "boundary.json"
        save_problem(p, path)
        assert problems_equal(load_problem(path), p)

    def test_rejects_other_documents(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_problem(path)

    @pytest.mark.parametrize("corrupt", ["missing_key", "ragged_table", "wrong_type"])
    def test_malformed_documents_raise_invalid_problem(self, corrupt):
        doc = problem_to_dict(generate_msd_case(2, 3, 2, seed=0))
        if corrupt == "missing_key":
            del doc["subsystems"][1][2]["Q"]
        elif corrupt == "ragged_table":
            doc["boundary"]["init"][0].pop()
        else:
            doc["T"] = [2]
        with pytest.raises(InvalidProblemError) as info:
            problem_from_dict(doc)
        assert isinstance(info.value, GridLQError)
