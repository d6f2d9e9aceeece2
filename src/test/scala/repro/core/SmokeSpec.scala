package repro.core

import repro.SparkSpec

/** End-to-end smoke: all solvers agree on one small instance. */
class SmokeSpec extends SparkSpec {

  test("all solvers agree on one instance") {
    val data = TestGen.df(spark, 25, seed = 1)
    val spec = TestGen.specs(3)
    val a = 6.0 / 64; val b = 5.0 / 64
    val target = TestGen.target(spark, data, spec, a, b, seed = 1)

    val lr = TestGen.localRects(data, a, b, spec)
    val brute = BruteForce.solve(lr, MinDistance(spec, target))
    val ds = DSSearch.solveASRS(data, a, b, spec, target)
    val sweep = SweepBase.solve(lr, spec, MinDistance(spec, target))
    val index = GridIndex.build(data, spec, 4, 4)
    val gids = GIDS.solve(data, a, b, spec, target, index)

    info(s"brute=${brute.score} ds=${ds.score} sweep=${sweep.score} gids=${gids.score}")
    assert(math.abs(ds.score - brute.score) < 1e-9, s"DS ${ds.score} vs brute ${brute.score}")
    assert(math.abs(sweep.score - brute.score) < 1e-9, s"sweep ${sweep.score} vs brute ${brute.score}")
    assert(math.abs(gids.score - brute.score) < 1e-9, s"gids ${gids.score} vs brute ${brute.score}")
  }

  test("MaxRS solvers agree on one instance") {
    val data = TestGen.df(spark, 30, seed = 2)
    val a = 8.0 / 64; val b = 8.0 / 64
    val spec = Rects.CountSpec
    val lr = Rects.maxRS(data, a, b)
    val brute = BruteForce.solve(lr, MinDistance(spec, Array(lr.n.toDouble))).vec(0)
    val ds = DSSearch.solveMaxRS(data, a, b)
    val oe = MaxRSOE.solve(lr)
    info(s"brute=$brute ds=${ds.score} oe=${oe.count}")
    assert(ds.score == brute)
    assert(oe.count.toDouble == brute)
  }

  test("every entry point answers empty input with the empty region, or fails fast") {
    val empty = TestGen.df(spark, 25, 1).where("x > 5")
    val data = TestGen.df(spark, 25, 1)
    val spec = TestGen.specs(3)
    val target = Array.fill(spec.dim)(1.0)
    val d0 = MinDistance(spec, target).emptyScore
    val a = 6.0 / 64; val b = 5.0 / 64
    val lr = TestGen.localRects(empty, a, b, spec)
    val edges = lr.edges
    assert(lr.n == 0 && d0 > 0)
    val brute = BruteForce.solve(lr, MinDistance(spec, target))
    val ds = DSSearch.solveASRS(empty, a, b, spec, target)
    val base = SweepBase.solveASRS(empty, a, b, spec, target)
    val maxDS = DSSearch.solveMaxRS(empty, a, b)
    val oe = MaxRSOE.solveMaxRS(empty, a, b)
    for ((solver, x, y, score, d) <- Seq(
           ("BruteForce.solve", brute.x, brute.y, brute.score, d0),
           ("DSSearch.solveASRS", ds.x, ds.y, ds.score, d0),
           ("SweepBase.solveASRS", base.x, base.y, base.score, d0),
           ("DSSearch.solveMaxRS", maxDS.x, maxDS.y, maxDS.score, 0.0),
           ("MaxRSOE.solveMaxRS", oe.x, oe.y, oe.count.toDouble, 0.0)))
      assert((x, y, score) == ((edges.outsideX, edges.outsideY, d)), solver)
    assert(Accuracy.ofLocal(lr) == ((Double.PositiveInfinity, Double.PositiveInfinity)))
    val noSpace = intercept[IllegalArgumentException](edges.space)
    assert(noSpace.getMessage.contains("no objects"))
    val index = GridIndex.build(data, spec, 4, 4)
    val other = intercept[IllegalArgumentException](GIDS.solve(empty, a, b, spec, target, index))
    assert(other.getMessage.contains("other data"))
  }
}
