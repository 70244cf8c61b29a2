"""Figure-shape assertions for the OpenMP-analogue patternlets."""

import pytest

from repro.core import run_patternlet
from repro.core.analysis import (
    contiguous_blocks,
    iterations_by_task,
    parse_hello_lines,
    phases_interleaved,
    phases_separated,
)
from repro.core.selfcheck import FIGURE_CHECKS


class TestSpmdFigures:
    def test_figure_2_sequential(self):
        """Pragma commented out: one greeting from the one thread."""
        run = run_patternlet("openmp.spmd", toggles={"parallel": False}, seed=0)
        assert parse_hello_lines(run) == [(0, 1, None)]

    def test_figure_3_parallel(self):
        """Pragma uncommented: four greetings, ids 0-3, all 'of 4'."""
        run = run_patternlet("openmp.spmd", tasks=4, seed=0)
        hellos = parse_hello_lines(run)
        assert sorted(h[0] for h in hellos) == [0, 1, 2, 3]
        assert all(h[1] == 4 for h in hellos)

    def test_nondeterministic_order_across_seeds(self):
        orders = {
            tuple(h[0] for h in parse_hello_lines(run_patternlet("openmp.spmd", seed=s)))
            for s in range(8)
        }
        assert len(orders) > 1


class TestBarrierFigures:
    def test_figure_8_interleaved_without_barrier(self):
        # Seeds exist where interleaving is visible; assert a known one.
        run = run_patternlet("openmp.barrier", toggles={"barrier": False}, seed=6)
        assert phases_interleaved(run, "BEFORE", "AFTER")

    def test_figure_9_separated_with_barrier(self):
        for seed in range(6):
            run = run_patternlet("openmp.barrier", toggles={"barrier": True}, seed=seed)
            assert phases_separated(run, "BEFORE", "AFTER"), seed

    def test_line_counts(self):
        run = run_patternlet("openmp.barrier", tasks=5, toggles={"barrier": True})
        assert len(run.grep("BEFORE")) == 5 and len(run.grep("AFTER")) == 5


class TestParallelLoopFigures:
    def test_figure_14_single_thread(self):
        run = run_patternlet("openmp.parallelLoopEqualChunks", tasks=1, seed=0)
        assert iterations_by_task(run) == {0: list(range(8))}

    def test_figure_15_two_threads(self):
        run = run_patternlet("openmp.parallelLoopEqualChunks", tasks=2, seed=0)
        got = iterations_by_task(run)
        assert got[0] == [0, 1, 2, 3]
        assert got[1] == [4, 5, 6, 7]

    def test_chunks_are_contiguous_any_count(self):
        for tasks in (2, 3, 4):
            run = run_patternlet("openmp.parallelLoopEqualChunks", tasks=tasks, reps=9)
            for mine in iterations_by_task(run).values():
                assert contiguous_blocks(mine)

    def test_chunks_of_1_stripes(self):
        run = run_patternlet("openmp.parallelLoopChunksOf1", tasks=2, seed=0)
        got = iterations_by_task(run)
        assert got[0] == [0, 2, 4, 6]
        assert got[1] == [1, 3, 5, 7]

    def test_dynamic_balances_skewed_work(self):
        run = run_patternlet("openmp.parallelLoopDynamic", tasks=3, seed=4)
        totals = {}
        for line in run.grep("total simulated work"):
            tid = int(line.split()[1])
            totals[tid] = int(line.rsplit(":", 1)[1])
        static = run_patternlet(
            "openmp.parallelLoopDynamic", tasks=3, seed=4, toggles={"dynamic": False}
        )
        stotals = {}
        for line in static.grep("total simulated work"):
            tid = int(line.split()[1])
            stotals[tid] = int(line.rsplit(":", 1)[1])
        # Static deal of iterations 0..11 in equal chunks: loads 6/22/38.
        assert max(stotals.values()) - min(stotals.values()) >= \
            max(totals.values()) - min(totals.values())


class TestReductionFigures:
    def test_figure_21_sequential_agreement(self):
        run = run_patternlet("openmp.reduction", seed=0)  # both toggles off
        seq = int(run.grep("Seq. sum")[0].split()[-1])
        par = int(run.grep("Par. sum")[0].split()[-1])
        assert seq == par

    def test_figure_22_race_loses_updates(self):
        run = run_patternlet(
            "openmp.reduction", toggles={"parallel_for": True}, seed=1
        )
        seq = int(run.grep("Seq. sum")[0].split()[-1])
        par = int(run.grep("Par. sum")[0].split()[-1])
        assert par < seq
        assert run.grep("MISMATCH")

    def test_figure_21_restored_with_reduction_clause(self):
        run = run_patternlet(
            "openmp.reduction",
            toggles={"parallel_for": True, "reduction": True},
            seed=1,
        )
        seq = int(run.grep("Seq. sum")[0].split()[-1])
        par = int(run.grep("Par. sum")[0].split()[-1])
        assert seq == par

    def test_reduction2_aggregates(self):
        run = run_patternlet("openmp.reduction2", tasks=4, seed=0)
        assert run.grep("min of squares: 1")
        assert run.grep("max of squares: 16")
        assert run.grep("count:          4")
        assert run.grep("product:        576")


class TestMutualExclusionFigures:
    def test_race_loses_money(self):
        run = run_patternlet("openmp.critical", toggles={"critical": False}, seed=2)
        assert run.grep("race condition lost")

    def test_critical_saves_every_deposit(self):
        for seed in range(4):
            run = run_patternlet("openmp.critical", toggles={"critical": True}, seed=seed)
            assert run.grep("Every deposit survived."), seed

    def test_atomic_fixes_count(self):
        run = run_patternlet("openmp.atomic", toggles={"atomic": True}, seed=3)
        expected = int(run.grep("Expected count")[0].split()[-1])
        actual = int(run.grep("Actual count")[0].split()[-1])
        assert expected == actual

    def test_figure_30_critical_more_expensive(self):
        # The selfcheck's own Fig. 30 check: 1000 reps in thread mode,
        # exact balances on every attempt, best of three on the timing.
        _, check = FIGURE_CHECKS["Fig. 30"]
        _, detail = check()
        assert detail.startswith("ratio "), detail  # both correct every try
        ratio = float(detail.split()[1].rstrip("x"))
        assert ratio > 1.0, detail  # critical costs more, as in Figure 30


class TestStructuredFigures:
    def test_master_worker_completes_all(self):
        run = run_patternlet("openmp.masterWorker", tasks=4, seed=5, items=10)
        assert len(run.grep("completed task#")) == 10

    def test_sections_each_once(self):
        run = run_patternlet("openmp.sections", tasks=3, seed=1)
        assert len(run.grep("handled by")) == 4

    def test_single_exactly_one_winner(self):
        run = run_patternlet("openmp.single", tasks=4, seed=2)
        assert len(run.grep("single block executed")) == 1
        assert len(run.grep("master block executed")) == 1

    def test_private_toggle_fixes_squares(self):
        bad = run_patternlet("openmp.private", seed=5)
        good = run_patternlet("openmp.private", toggles={"private": True}, seed=5)
        assert bad.grep("WRONG")
        assert not good.grep("WRONG")
        assert good.grep("4 of 4 threads")

    def test_fork_join_phases(self):
        run = run_patternlet("openmp.forkJoin", tasks=3, seed=0)
        assert len(run.grep("During:")) == 3
        assert run.lines[0].startswith("Before forking")
        assert run.lines[-1].startswith("After joining")

    def test_fork_join2_team_sizes(self):
        run = run_patternlet("openmp.forkJoin2", tasks=4, seed=0)
        assert len(run.grep("Phase A:")) == 2
        assert len(run.grep("Phase B:")) == 4
