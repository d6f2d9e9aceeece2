package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import scala.util.Random

/** §5 grid index: Lemma 8 range sums against DuckDB, suffix-table
  * consistency, and soundness of the per-cell candidate-region bounds.
  */
class GridIndexSpec extends SparkSpec {

  /** DuckDB expressions for the index's statistic columns of `spec`, in the
    * index's column order, over the VARCHAR table `Oracle` loads.
    */
  private def statColumnsSql(spec: CompositeAggregator): Seq[String] = {
    def sel(s: Option[Selection]) = s.map(x => s"${x.col} = '${x.value}'").getOrElse("TRUE")
    def total(when: String, what: String) = s"COALESCE(SUM(CASE WHEN $when THEN $what ELSE 0 END), 0)"
    spec.aggs.flatMap {
      case DistAgg(attr, dom, s) => dom.map(d => total(s"$attr = '$d' AND ${sel(s)}", "1"))
      case AvgAgg(attr, s) =>
        val selected = s"${sel(s)} AND $attr IS NOT NULL"
        Seq(total(selected, "1"), total(selected, s"CAST($attr AS DOUBLE)"))
      case SumAgg(attr, s) =>
        Seq(total(s"${sel(s)} AND $attr IS NOT NULL AND CAST($attr AS DOUBLE) > 0", s"CAST($attr AS DOUBLE)"),
            total(s"${sel(s)} AND $attr IS NOT NULL AND CAST($attr AS DOUBLE) < 0", s"CAST($attr AS DOUBLE)"))
    }
  }

  /** Every statistic column of specs 3 and 4 summed over five random cell
    * ranges `[i0,i1) × [j0,j1)` of a `g×g` index from the suffix tables must
    * equal a direct SQL sum with half-open coordinate predicates (mirroring
    * the build's floor assignment). Spec 3's f_D columns are spec 0's; spec 4
    * adds a selection to every kind.
    */
  private def checkRangeSums(data: DataFrame, g: Int, rng: Random): Unit =
    for (spec <- Seq(TestGen.specs(3), TestGen.specs(4))) {
      val idx = GridIndex.build(data, spec, g, g)
      val cols = statColumnsSql(spec)
      for (_ <- 1 to 5) {
        val i0 = rng.nextInt(g); val i1 = i0 + 1 + rng.nextInt(g - i0)
        val j0 = rng.nextInt(g); val j1 = j0 + 1 + rng.nextInt(g - j0)
        val xLo = idx.space.x0 + i0 * idx.grid.cw; val xHi = idx.space.x0 + i1 * idx.grid.cw
        val yLo = idx.space.y0 + j0 * idx.grid.ch; val yHi = idx.space.y0 + j1 * idx.grid.ch
        val xHiPred = if (i1 == idx.sx) s"CAST(x AS DOUBLE) <= ${idx.space.x1}"
                      else s"CAST(x AS DOUBLE) < $xHi"
        val yHiPred = if (j1 == idx.sy) s"CAST(y AS DOUBLE) <= ${idx.space.y1}"
                      else s"CAST(y AS DOUBLE) < $yHi"
        val sql = cols.zipWithIndex.map { case (c, k) => s"CAST($c AS DOUBLE) AS c$k" }
          .mkString("SELECT ", ", ", s" FROM t WHERE CAST(x AS DOUBLE) >= $xLo AND $xHiPred " +
                                     s"AND CAST(y AS DOUBLE) >= $yLo AND $yHiPred")
        val viaIndex = cols.indices.map(k => idx.range(k, i0, i1, j0, j1))
        import spark.implicits._
        val sparkDf = Seq(viaIndex).toDF("v").selectExpr(cols.indices.map(k => s"v[$k] AS c$k"): _*)
        Oracle.assertEquivalent(sparkDf, sql, "t" -> data)
      }
    }

  for (seed <- 1 to 4; g <- Seq(4, 8))
    test(s"Lemma 8 range counts match DuckDB (seed $seed, ${g}x$g)") {
      checkRangeSums(TestGen.df(spark, 60, seed), g, new Random(seed * 11))
    }

  // About one in four `v`/`w` values is null: f_A counts and f_S sums skip
  // them like an unselected object. A null `cat` matches no selection.
  for (seed <- 1 to 2; g <- Seq(4, 8))
    test(s"Lemma 8 range sums match DuckDB with null attributes (seed $seed, ${g}x$g)") {
      checkRangeSums(TestGen.dfWithNulls(spark, 60, seed), g, new Random(seed * 13))
    }

  test("an f_A selection matching no object builds and bounds [0, 0] in every cell") {
    val data = TestGen.df(spark, 40, 5)
    val spec = CompositeAggregator.uniform(
      DistAgg("cat", TestGen.Cats), AvgAgg("v", Some(Selection("cat", "Z"))))
    val idx = GridIndex.build(data, spec, 4, 4)
    for (ci <- 0 until 4; cj <- 0 until 4) {
      val (lo, hi) = idx.candidateBounds(ci, cj, 8 / 64.0, 8 / 64.0)
      assert(lo(3) == 0.0 && hi(3) == 0.0, s"cell ($ci,$cj): f_A bound [${lo(3)}, ${hi(3)}]")
    }
  }

  for (seed <- 1 to 6; specIdx <- Seq(0, 3, 4))
    test(s"candidate-region bounds are sound (seed $seed, spec $specIdx)") {
      val data = TestGen.df(spark, 40, seed)
      val spec = TestGen.specs(specIdx)
      val idx = GridIndex.build(data, spec, 6, 6)
      val rng = new Random(seed * 29)
      val a = (rng.nextInt(16) + 4) / 64.0; val b = (rng.nextInt(16) + 4) / 64.0
      val lr = TestGen.localRects(data, a, b, spec)
      for (ci <- 0 until 6; cj <- 0 until 6) {
        val (lo, hi) = idx.candidateBounds(ci, cj, a, b)
        val cell = idx.grid.cellBox(ci, cj)
        for (_ <- 1 to 8) {
          val px = cell.x0 + rng.nextDouble() * cell.width
          val py = cell.y0 + rng.nextDouble() * cell.height
          val v = BruteForce.evalPoint(lr, spec, px, py)
          v.indices.foreach { k =>
            assert(lo(k) <= v(k) + 1e-9 && v(k) <= hi(k) + 1e-9,
              s"cell ($ci,$cj) dim $k: ${v(k)} outside [${lo(k)}, ${hi(k)}] (a=$a b=$b)")
          }
        }
      }
    }

  test("index size grows ~4x per granularity doubling") {
    val data = TestGen.df(spark, 50, 3)
    val spec = TestGen.specs(0)
    val s1 = GridIndex.build(data, spec, 8, 8).sizeBytes
    val s2 = GridIndex.build(data, spec, 16, 16).sizeBytes
    assert(s2 > 3 * s1 && s2 < 5 * s1, s"$s1 -> $s2")
  }

  test("index build on empty input fails fast with a clear message") {
    val empty = TestGen.df(spark, 5, 1).where("x > 2")
    val e = intercept[IllegalArgumentException](GridIndex.build(empty, TestGen.specs(0), 4, 4))
    assert(e.getMessage.contains("no objects"), e.getMessage)
  }

  test("index handles all-same-location data") {
    import spark.implicits._
    val data = Seq.fill(5)((0.5, 0.5, "A", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val idx = GridIndex.build(data, TestGen.specs(0), 4, 4)
    val (lo, hi) = idx.candidateBounds(0, 0, 0.1, 0.1)
    assert(lo.forall(_ >= 0) && hi.forall(_ >= 0))
  }
}
