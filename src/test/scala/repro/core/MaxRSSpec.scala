package repro.core

import repro.SparkSpec
import org.apache.spark.sql.functions.lit
import scala.util.Random

/** §7.5: DS-Search adapted to MaxRS (upper bounds + max-heap) and the OE
  * sweep baseline both find the maximum enclosing count.
  */
class MaxRSSpec extends SparkSpec {

  private val spec = CompositeAggregator.uniform(SumAgg("__one"))

  private def rectsOf(data: org.apache.spark.sql.DataFrame, a: Double, b: Double): LocalRects =
    LocalRects.collect(Rects.build(data.withColumn("__one", lit(1.0)), a, b, spec), spec)

  for (seed <- 1 to 8) test(s"DS-MaxRS and OE equal brute force (seed $seed)") {
    val data = TestGen.df(spark, 35, seed).cache()
    val rng = new Random(seed * 41)
    val a = (rng.nextInt(16) + 4) / 64.0; val b = (rng.nextInt(16) + 4) / 64.0
    val lr = rectsOf(data, a, b)
    val brute = BruteForce.solve(lr, spec, MaxCount())
    val ds = DSSearch.solveMaxRS(data, a, b)
    val oe = MaxRSOE.solve(lr)
    assert(ds.score == brute.score, s"DS ${ds.score} vs brute ${brute.score}")
    assert(oe.count.toDouble == brute.score, s"OE ${oe.count} vs brute ${brute.score}")
    // returned locations achieve the count
    assert(BruteForce.evalPoint(lr, spec, ds.x, ds.y)(0) == brute.score)
    assert(BruteForce.evalPoint(lr, spec, oe.x, oe.y)(0) == brute.score)
    data.unpersist()
  }

  test("all objects in one spot: count equals multiplicity") {
    import spark.implicits._
    val data = Seq.fill(7)((0.5, 0.5, "A", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    assert(DSSearch.solveMaxRS(data, 0.1, 0.1).score == 7.0)
    assert(MaxRSOE.solveMaxRS(data, 0.1, 0.1).count == 7L)
  }

  test("spread objects with tiny rectangles: count is 1") {
    import spark.implicits._
    val data = Seq((0.1, 0.1, "A", 1.0, 1.0), (0.5, 0.5, "B", 1.0, 1.0),
                   (0.9, 0.9, "C", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    assert(DSSearch.solveMaxRS(data, 0.01, 0.01).score == 1.0)
    assert(MaxRSOE.solveMaxRS(data, 0.01, 0.01).count == 1L)
  }

  test("empty input") {
    val data = TestGen.df(spark, 1, 1).where("x > 5")
    assert(MaxRSOE.solveMaxRS(data, 0.1, 0.1).count == 0L)
    assert(DSSearch.solveMaxRS(data, 0.1, 0.1).score == 0.0)
  }
}
