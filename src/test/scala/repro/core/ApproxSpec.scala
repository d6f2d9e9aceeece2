package repro.core

import repro.SparkSpec
import scala.util.Random

/** app-GIDS (§6): the returned region's distance is within (1+δ) of the
  * optimum (Theorem 3). On one instance, δ = 0.4 searches no more index
  * cells than δ = 0; cells searched is not monotone in δ in general.
  */
class ApproxSpec extends SparkSpec {

  for (seed <- 1 to 4; delta <- Seq(0.1, 0.3))
    test(s"(1+δ) guarantee holds (seed $seed, δ=$delta)") {
      val data = TestGen.df(spark, 35, seed)
      val spec = TestGen.specs(3)
      val rng = new Random(seed * 19)
      val a = (rng.nextInt(12) + 4) / 64.0; val b = (rng.nextInt(12) + 4) / 64.0
      val target = TestGen.target(spark, data, spec, a, b, seed + 50)
      val lr = TestGen.localRects(data, a, b, spec)
      val opt = BruteForce.solve(lr, MinDistance(spec, target)).score
      val idx = GridIndex.build(data, spec, 6, 6)
      val res = GIDS.solve(data, a, b, spec, target, idx,
                           SearchParams(delta = delta))
      assert(res.score <= (1 + delta) * opt + 1e-9,
        s"approx ${res.score} > (1+$delta)·$opt")
      // the reported score must still be achievable
      val achieved = MinDistance(spec, target).score(
        BruteForce.evalPoint(lr, spec, res.x, res.y))
      assert(math.abs(achieved - res.score) < 1e-9)
    }

  test("δ=0 equals the exact solver") {
    val data = TestGen.df(spark, 30, 9)
    val spec = TestGen.specs(4)
    val a = 8 / 64.0; val b = 6 / 64.0
    val target = TestGen.target(spark, data, spec, a, b, 9)
    val idx = GridIndex.build(data, spec, 6, 6)
    val exact = GIDS.solve(data, a, b, spec, target, idx)
    val alsoExact = GIDS.solve(data, a, b, spec, target, idx, SearchParams(delta = 0.0))
    assert(exact.score == alsoExact.score)
  }

  test("δ = 0.4 searches no more index cells than δ = 0") {
    val data = repro.SynthData.pois(spark, 3000, seed = 21).cache()
    val spec = CompositeAggregator.uniform(DistAgg("dow", repro.SynthData.DowDomain))
    val a = 16.0 / 1024; val b = 16.0 / 1024
    // Three more objects of every day than a real region holds: no region
    // scores 0, so δ = 0 must search index cells and δ has room to prune.
    val target = Agg.representation(data, spec, Box(0.9, 0.9, 0.9 + a, 0.9 + b)).map(_ + 3)
    val idx = GridIndex.build(data, spec, 16, 16)
    val work = Seq(0.0, 0.2, 0.4).map { d =>
      val r = GIDS.solve(data, a, b, spec, target, idx, SearchParams(delta = d))
      (d, r.cellsSearched, r.stats.spacesProcessed, r.score)
    }
    val exactScore = work.head._4
    work.foreach { case (d, _, _, s) => assert(s <= (1 + d) * exactScore + 1e-9) }
    assert(work.head._2 > 0, "δ=0 searched no index cell")
    assert(work(2)._2 <= work.head._2,
      s"δ=0.4 searched ${work(2)._2} cells > δ=0 searched ${work.head._2}")
  }
}
