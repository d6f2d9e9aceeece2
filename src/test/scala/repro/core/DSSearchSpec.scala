package repro.core

import repro.SparkSpec
import scala.util.Random

/** DS-Search (Algorithm 1) returns the exact optimum (Lemma 7): compared
  * against brute-force enumeration of all disjoint regions across sizes,
  * aggregators, weights and grid granularities.
  */
class DSSearchSpec extends SparkSpec {

  private def check(seed: Int, specIdx: Int, n: Int, params: SearchParams): Unit = {
    val data = TestGen.df(spark, n, seed).cache()
    val spec = TestGen.specs(specIdx)
    val rng = new Random(seed * 101 + specIdx)
    val a = (rng.nextInt(14) + 4) / 64.0; val b = (rng.nextInt(14) + 4) / 64.0
    val target = TestGen.target(spark, data, spec, a, b, seed)
    val lr = TestGen.localRects(data, a, b, spec)
    val brute = BruteForce.solve(lr, spec, MinDistance(spec, target))
    val ds = DSSearch.solveASRS(data, a, b, spec, target, params)
    assert(math.abs(ds.score - brute.score) < 1e-9,
      s"DS ${ds.score} vs brute ${brute.score} (seed=$seed spec=$specIdx a=$a b=$b)")
    // the reported point must actually achieve the reported score
    val achieved = MinDistance(spec, target).score(BruteForce.evalPoint(lr, spec, ds.x, ds.y))
    assert(math.abs(achieved - ds.score) < 1e-9, s"reported point achieves $achieved, not ${ds.score}")
    data.unpersist()
  }

  // Exactness across all aggregator shapes.
  for (seed <- 1 to 5; specIdx <- TestGen.specs.indices)
    test(s"exact vs brute, local path (seed $seed, spec $specIdx)") {
      check(seed, specIdx, n = 30, SearchParams())
    }

  // Different grid granularities must not change the answer.
  for (g <- Seq(5, 12, 40))
    test(s"exact under ${g}x$g discretization grid") {
      check(seed = 11, specIdx = 3, n = 28,
            SearchParams(ncol = g, nrow = g))
    }

  test("empty dataset returns the empty representation") {
    val data = TestGen.df(spark, 1, 1).where("x > 2")
    val spec = TestGen.specs(0)
    val r = DSSearch.solveASRS(data, 0.1, 0.1, spec, Array(1.0, 0, 0))
    assert(r.score == 1.0) // |0-1| on dim 0
  }

  test("target equal to the empty representation finds distance 0") {
    val data = TestGen.df(spark, 20, 9).cache()
    val spec = TestGen.specs(0)
    val r = DSSearch.solveASRS(data, 4 / 64.0, 4 / 64.0, spec, Array(0.0, 0, 0))
    assert(r.score == 0.0)
    val lr = TestGen.localRects(data, 4 / 64.0, 4 / 64.0, spec)
    assert(BruteForce.evalPoint(lr, spec, r.x, r.y).forall(_ == 0.0))
  }

  test("single object, query wants exactly one object") {
    import spark.implicits._
    val data = Seq((0.5, 0.5, "B", 3.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val r = DSSearch.solveASRS(data, 0.125, 0.125, spec, Array(0.0, 1.0, 0.0))
    assert(r.score == 0.0)
    assert(r.region(0.125, 0.125).coversOpen(0.5, 0.5))
  }

  test("duplicate object locations are handled") {
    import spark.implicits._
    val data = Seq((0.5, 0.5, "A", 1.0, 1.0), (0.5, 0.5, "A", 2.0, 1.0),
                   (0.25, 0.25, "B", 3.0, 1.0))
      .toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 0.2, 0.2, spec)
    val target = Array(2.0, 0.0, 0.0)
    val brute = BruteForce.solve(lr, spec, MinDistance(spec, target))
    val ds = DSSearch.solveASRS(data, 0.2, 0.2, spec, target)
    assert(math.abs(ds.score - brute.score) < 1e-9)
    assert(ds.score == 0.0)
  }

  test("search statistics are populated") {
    val data = TestGen.df(spark, 40, 13).cache()
    val spec = TestGen.specs(3)
    val t = TestGen.target(spark, data, spec, 0.1, 0.1, 13)
    val r = DSSearch.solveASRS(data, 0.1, 0.1, spec, t)
    // Incumbent seeding may solve the instance outright (threshold 0 ⇒ no
    // spaces popped); when spaces are processed, cells must have been too.
    assert(r.stats.spacesProcessed == 0 || r.stats.cellsEvaluated > 0)
    assert(!r.stats.truncated)
    // an impossible target forces actual discretization work
    val far = Array.fill(spec.dim)(1e6)
    val r2 = DSSearch.solveASRS(data, 0.1, 0.1, spec, far)
    assert(r2.stats.spacesProcessed > 0 && r2.stats.cellsEvaluated > 0)
  }
}
