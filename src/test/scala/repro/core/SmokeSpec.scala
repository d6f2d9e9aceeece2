package repro.core

import repro.SparkSpec

/** End-to-end smoke: all solvers agree on one small instance. */
class SmokeSpec extends SparkSpec {

  test("all solvers agree on one instance") {
    val data = TestGen.df(spark, 25, seed = 1).cache()
    val spec = TestGen.specs(3)
    val a = 6.0 / 64; val b = 5.0 / 64
    val target = TestGen.target(spark, data, spec, a, b, seed = 1)

    val lr = TestGen.localRects(data, a, b, spec)
    val brute = BruteForce.solve(lr, spec, MinDistance(spec, target))
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
    val data = TestGen.df(spark, 30, seed = 2).cache()
    val a = 8.0 / 64; val b = 8.0 / 64
    import org.apache.spark.sql.functions.lit
    val spec = CompositeAggregator.uniform(SumAgg("__one"))
    val lr = LocalRects.collect(
      Rects.build(data.withColumn("__one", lit(1.0)), a, b, spec), spec)
    val brute = BruteForce.solve(lr, spec, MaxCount())
    val ds = DSSearch.solveMaxRS(data, a, b)
    val oe = MaxRSOE.solve(lr)
    info(s"brute=${brute.score} ds=${ds.score} oe=${oe.count}")
    assert(ds.score == brute.score)
    assert(oe.count.toDouble == brute.score)
  }
}
