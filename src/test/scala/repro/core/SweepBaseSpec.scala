package repro.core

import repro.SparkSpec
import scala.util.Random

/** Base, the O(n²) sweep baseline, is itself exact — required for the
  * speedup benchmarks to compare equals.
  */
class SweepBaseSpec extends SparkSpec {

  for (seed <- 1 to 6; specIdx <- Seq(0, 2, 3, 5))
    test(s"sweep equals brute force (seed $seed, spec $specIdx)") {
      val data = TestGen.df(spark, 30, seed)
      val spec = TestGen.specs(specIdx)
      val rng = new Random(seed * 53)
      val a = (rng.nextInt(14) + 4) / 64.0; val b = (rng.nextInt(14) + 4) / 64.0
      val target = TestGen.target(spark, data, spec, a, b, seed)
      val lr = TestGen.localRects(data, a, b, spec)
      val brute = BruteForce.solve(lr, MinDistance(spec, target))
      val sweep = SweepBase.solve(lr, spec, MinDistance(spec, target))
      assert(math.abs(sweep.score - brute.score) < 1e-9,
        s"sweep ${sweep.score} vs brute ${brute.score}")
      val achieved = MinDistance(spec, target).score(
        BruteForce.evalPoint(lr, spec, sweep.x, sweep.y))
      assert(math.abs(achieved - sweep.score) < 1e-9)
    }

  test("sweep on empty input returns the empty representation") {
    val spec = TestGen.specs(0)
    val lr = new LocalRects(0, Array(), Array(), Array(), Array(),
                            Array(Array()), Array(), Array())
    val r = SweepBase.solve(lr, spec, MinDistance(spec, Array(0.0, 0, 0)))
    assert(r.score == 0.0 && r.intervals == 0)
  }

  test("sweep counts intervals") {
    val data = TestGen.df(spark, 20, 2)
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 0.2, 0.2, spec)
    val r = SweepBase.solve(lr, spec, MinDistance(spec, Array(0.0, 0, 0)))
    assert(r.intervals > 0)
  }

  test("end-to-end solveASRS wrapper") {
    val data = TestGen.df(spark, 25, 4)
    val spec = TestGen.specs(3)
    val t = TestGen.target(spark, data, spec, 0.1, 0.1, 4)
    val viaDf = SweepBase.solveASRS(data, 0.1, 0.1, spec, t)
    val lr = TestGen.localRects(data, 0.1, 0.1, spec)
    val direct = SweepBase.solve(lr, spec, MinDistance(spec, t))
    assert(viaDf.score == direct.score)
  }
}
