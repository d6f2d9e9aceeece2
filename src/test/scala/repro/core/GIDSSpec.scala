package repro.core

import repro.SparkSpec
import scala.util.Random

/** Algorithm 2 (GI-DS) with δ=0 is exact and prunes index cells. */
class GIDSSpec extends SparkSpec {

  for (seed <- 1 to 5; g <- Seq(4, 8))
    test(s"GI-DS equals brute force (seed $seed, index ${g}x$g)") {
      val data = TestGen.df(spark, 35, seed).cache()
      val spec = TestGen.specs(if (seed % 2 == 0) 3 else 4)
      val rng = new Random(seed * 71)
      val a = (rng.nextInt(14) + 4) / 64.0; val b = (rng.nextInt(14) + 4) / 64.0
      val target = TestGen.target(spark, data, spec, a, b, seed)
      val lr = TestGen.localRects(data, a, b, spec)
      val brute = BruteForce.solve(lr, spec, MinDistance(spec, target))
      val idx = GridIndex.build(data, spec, g, g)
      val res = GIDS.solve(data, a, b, spec, target, idx)
      assert(math.abs(res.score - brute.score) < 1e-9,
        s"GIDS ${res.score} vs brute ${brute.score} (a=$a b=$b)")
      assert(res.totalCells == g * g)
      assert(res.cellsSearched >= 0 && res.cellsSearched <= res.totalCells)
      data.unpersist()
    }

  test("optimum left of the index space is found (boundary strips)") {
    import spark.implicits._
    // Single pair of objects near the left edge: the best corner for a target
    // wanting exactly one object can sit at x < min(x) − i.e. outside the
    // index grid, whose space starts at min(x).
    val data = Seq((0.1, 0.5, "A", 1.0, 1.0), (0.12, 0.5, "B", 1.0, 1.0),
                   (0.8, 0.8, "C", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val a = 0.05; val b = 0.5
    val target = Array(1.0, 0.0, 0.0) // want exactly one A
    val lr = TestGen.localRects(data, a, b, spec)
    val brute = BruteForce.solve(lr, spec, MinDistance(spec, target))
    assert(brute.score == 0.0)
    val idx = GridIndex.build(data, spec, 4, 4)
    val res = GIDS.solve(data, a, b, spec, target, idx)
    assert(res.score == 0.0, s"GIDS missed the strip optimum: ${res.score}")
  }

  test("pruning searches fewer cells when the target is easy") {
    val data = repro.SynthData.pois(spark, 2000, seed = 5).cache()
    val spec = CompositeAggregator.uniform(DistAgg("dow", repro.SynthData.DowDomain))
    val a = 16.0 / 1024; val b = 16.0 / 1024
    // Impossible target far from everything: every cell bound is ~equally bad
    // vs a perfectly matching target: pruning should differ; just assert the
    // mechanism reports sane numbers and exactness holds on a spot check.
    val target = Agg.representation(data, spec, Box(0.4, 0.4, 0.4 + a, 0.4 + b))
    val idx = GridIndex.build(data, spec, 16, 16)
    val res = GIDS.solve(data, a, b, spec, target, idx)
    assert(res.score <= 1e-9, "a region matching the target's own source must be found")
    assert(res.cellsSearched < res.totalCells,
      s"expected pruning, searched ${res.cellsSearched}/${res.totalCells}")
  }

  test("shared incumbent across cells tightens pruning monotonically") {
    val data = TestGen.df(spark, 40, 17).cache()
    val spec = TestGen.specs(3)
    val a = 8 / 64.0; val b = 8 / 64.0
    val target = TestGen.target(spark, data, spec, a, b, 17)
    val fine = GridIndex.build(data, spec, 16, 16)
    val coarse = GridIndex.build(data, spec, 2, 2)
    val rFine = GIDS.solve(data, a, b, spec, target, fine)
    val rCoarse = GIDS.solve(data, a, b, spec, target, coarse)
    assert(math.abs(rFine.score - rCoarse.score) < 1e-9) // granularity never changes the answer
  }

  test("an index built for other aggregators is rejected; other weights are not") {
    val data = TestGen.df(spark, 30, 23).cache()
    val (a, b) = (8 / 64.0, 8 / 64.0)
    val idx = GridIndex.build(data, TestGen.specs(3), 4, 4)
    val sumOnly = TestGen.specs(2)
    val e = intercept[IllegalArgumentException](
      GIDS.solve(data, a, b, sumOnly, TestGen.target(spark, data, sumOnly, a, b, 23), idx))
    assert(e.getMessage.contains("index was built for"), e.getMessage)

    val reweighted = CompositeAggregator(TestGen.specs(3).aggs, Array(2.0, 1, 1, 0.5, 0.25))
    val target = TestGen.target(spark, data, reweighted, a, b, 23)
    val lr = TestGen.localRects(data, a, b, reweighted)
    val brute = BruteForce.solve(lr, reweighted, MinDistance(reweighted, target))
    val res = GIDS.solve(data, a, b, reweighted, target, idx)
    assert(math.abs(res.score - brute.score) < 1e-9, s"GIDS ${res.score} vs brute ${brute.score}")
    data.unpersist()
  }
}
