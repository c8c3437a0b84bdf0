"""Ablation: surrogate accuracy vs measurement budget.

The paper's exhaustive campaign "took several days"; its ML future
work exists to shrink that.  This bench prints the learning curve --
grid-wide error of the surrogate as a function of how many of the
measured mixes it was trained on.
"""

from benchmarks.learning import learning_curve


def test_learning_curve(benchmark, database):
    curve = benchmark.pedantic(
        lambda: learning_curve(database, rng=11), rounds=1, iterations=1
    )

    print("\n=== learning curve: surrogate error vs training budget ===")
    print(f"{'fraction':>9s} {'#train':>7s} {'time err (median)':>18s} {'energy err (median)':>20s}")
    for fraction, n_train, time_err, energy_err in curve.rows():
        print(f"{fraction:9.2f} {n_train:7d} {time_err:17.1%} {energy_err:19.1%}")

    threshold = curve.smallest_fraction_below(0.10)
    print(
        f"\nsmallest budget with <10% median time error: "
        f"{threshold:.0%} of the {len(database)}-mix campaign"
        if threshold is not None
        else "\nno budget reached <10% median time error"
    )

    # More data never hurts much; the last point must be as good as
    # the first within tolerance, and some budget reaches <12%.
    first, last = curve.points[0], curve.points[-1]
    assert last.median_time_error <= first.median_time_error + 0.02
    assert curve.smallest_fraction_below(0.12) is not None
