package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import repro.SparkSpec
import scala.util.Random

/** A seeded differential net at n = 1,000 and 5,000 (duplicate-heavy on
  * the 1/64 lattice): DS-Search and GI-DS equal the Base sweep and answer
  * off every rectangle's boundary, and app-GIDS keeps its (1+δ) guarantee,
  * for every test spec, on reachable and unreachable targets, on a query
  * larger than the data's extent and on collinear data; DS-MaxRS equals OE
  * on the same data and query sizes.
  */
class DifferentialSpec extends SparkSpec {

  private val Delta = 0.2

  private def check(data: DataFrame, spec: CompositeAggregator,
                    a: Double, b: Double, target: Array[Double]): Unit = {
    val lr = TestGen.localRects(data, a, b, spec)
    val d = SweepBase.solve(lr, spec, MinDistance(spec, target)).score
    val tol = 1e-9 * math.max(1.0, math.abs(d))
    val ds = DSSearch.solveASRS(data, a, b, spec, target)
    assert(math.abs(ds.score - d) <= tol, s"DS-Search ${ds.score} vs Base $d (a=$a b=$b)")
    assert(!ds.stats.truncated)
    assertOffEdges(lr, "DS-Search", ds.x, ds.y)
    val idx = GridIndex.build(data, spec, 16, 16)
    val gids = GIDS.solve(data, a, b, spec, target, idx)
    assert(math.abs(gids.score - d) <= tol, s"GI-DS ${gids.score} vs Base $d (a=$a b=$b)")
    assertOffEdges(lr, "GI-DS", gids.x, gids.y)
    val app = GIDS.solve(data, a, b, spec, target, idx, SearchParams(delta = Delta))
    assert(app.score >= d - tol && app.score <= (1 + Delta) * d + tol,
      s"app-GIDS ${app.score} outside [$d, ${(1 + Delta) * d}] (a=$a b=$b)")
  }

  /** The answer (x, y) lies in an open cell of the edge arrangement: on no
    * rectangle's boundary segment. A coordinate equal to a far rectangle's
    * edge is allowed.
    */
  private def assertOffEdges(lr: LocalRects, solver: String, x: Double, y: Double): Unit = {
    val on = (0 until lr.n).find { r =>
      ((x == lr.xlo(r) || x == lr.xhi(r)) && lr.ylo(r) <= y && y <= lr.yhi(r)) ||
      ((y == lr.ylo(r) || y == lr.yhi(r)) && lr.xlo(r) <= x && x <= lr.xhi(r))
    }
    on.foreach { r =>
      fail(s"$solver's answer ($x, $y) lies on the boundary of rectangle " +
        s"[${lr.xlo(r)}, ${lr.xhi(r)}] × [${lr.ylo(r)}, ${lr.yhi(r)}]")
    }
  }

  private def checkMaxRS(data: DataFrame, a: Double, b: Double): DSSearch.Result = {
    val oe = MaxRSOE.solveMaxRS(data, a, b).count.toDouble
    val ds = DSSearch.solveMaxRS(data, a, b)
    assert(ds.score == oe, s"DS-MaxRS ${ds.score} vs OE $oe (a=$a b=$b)")
    assert(!ds.stats.truncated)
    ds
  }

  /** A target no region is likely to attain: every dimension moved off the
    * representation of a real region.
    */
  private def unreachable(t: Array[Double]): Array[Double] = t.map(_ * 1.3 + 0.7)

  for ((spec, k) <- TestGen.specs.zipWithIndex) {
    val rng = new Random(k * 101 + 5)
    val a = (rng.nextInt(16) + 4) / 64.0; val b = (rng.nextInt(16) + 4) / 64.0
    test(s"DS-Search, GI-DS and app-GIDS agree with Base at n = 1,000 (spec $k)") {
      val data = TestGen.df(spark, 1000, 1)
      val target = TestGen.target(spark, data, spec, a, b, k + 1)
      check(data, spec, a, b, target)
      check(data, spec, a, b, unreachable(target))
    }
    test(s"DS-MaxRS agrees with OE at n = 1,000 (query size of spec $k)") {
      checkMaxRS(TestGen.df(spark, 1000, 1), a, b)
    }
  }

  // n = 5,000: query sides of 4–11 lattice steps keep Base's O(n²) sweep to
  // about 2 s a test.
  for ((spec, k) <- TestGen.specs.zipWithIndex) {
    val rng = new Random(k * 103 + 11)
    val a = (rng.nextInt(8) + 4) / 64.0; val b = (rng.nextInt(8) + 4) / 64.0
    test(s"DS-Search, GI-DS and app-GIDS agree with Base at n = 5,000 (spec $k)") {
      val data = TestGen.df(spark, 5000, 2)
      val target = TestGen.target(spark, data, spec, a, b, k + 11)
      check(data, spec, a, b, target)
      check(data, spec, a, b, unreachable(target))
    }
    test(s"DS-MaxRS agrees with OE at n = 5,000 (query size of spec $k)") {
      checkMaxRS(TestGen.df(spark, 5000, 2), a, b)
    }
  }

  test("DS-Search, GI-DS and app-GIDS agree with Base at n = 1,000 on a query larger than the extent") {
    val spec = TestGen.specs(3)
    val data = TestGen.df(spark, 1000, 1)
    val target = TestGen.target(spark, data, spec, 0.5, 0.75, 7)
    check(data, spec, 1.25, 1.5, unreachable(target))
  }

  test("DS-MaxRS agrees with OE at n = 1,000 on a query larger than the extent") {
    // The root space's clean cells already hold all n objects (distance 0):
    // no space but the root is searched.
    val ds = checkMaxRS(TestGen.df(spark, 1000, 1), 1.25, 1.5)
    assert(ds.score == 1000.0)
    assert(ds.stats.spacesProcessed == 1)
  }

  // Every object on the line x = 0.5 (or y = 0.5): the objects' bbox, and so
  // the grid index's space, has zero width (or height).
  for ((axis, k) <- Seq(("x", 3), ("x", 1), ("y", 4))) {
    val rng = new Random(k * 101 + 5)
    val a = (rng.nextInt(16) + 4) / 64.0; val b = (rng.nextInt(16) + 4) / 64.0
    def collinear = TestGen.df(spark, 1000, 1).withColumn(axis, lit(0.5))
    test(s"DS-Search, GI-DS and app-GIDS agree with Base at n = 1,000 on collinear data ($axis = 0.5, spec $k)") {
      val data = collinear
      val spec = TestGen.specs(k)
      // The target region straddles the line, so it holds objects; its other
      // coordinate is random, off the lattice.
      val c = rng.nextDouble() * 0.75
      val region =
        if (axis == "x") Box(0.5 - a / 2, c, 0.5 + a / 2, c + b)
        else Box(c, 0.5 - b / 2, c + a, 0.5 + b / 2)
      val target = Agg.representation(data, spec, region)
      check(data, spec, a, b, target)
      check(data, spec, a, b, unreachable(target))
    }
    test(s"DS-MaxRS agrees with OE at n = 1,000 on collinear data ($axis = 0.5, query size of spec $k)") {
      checkMaxRS(collinear, a, b)
    }
  }
}
