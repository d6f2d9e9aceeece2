package repro.core

import repro.{Oracle, SparkSpec}
import scala.util.Random

/** §5 grid index: Lemma 8 range counts against DuckDB, suffix-table
  * consistency, and soundness of the per-cell candidate-region bounds.
  */
class GridIndexSpec extends SparkSpec {

  for (seed <- 1 to 4; g <- Seq(4, 8))
    test(s"Lemma 8 range counts match DuckDB (seed $seed, ${g}x$g)") {
      val data = TestGen.df(spark, 60, seed)
      val spec = CompositeAggregator.uniform(DistAgg("cat", TestGen.Cats))
      val idx = GridIndex.build(data, spec, g, g)
      val rng = new Random(seed * 11)
      // random cell range [i0,i1) x [j0,j1): bounds from suffix tables must
      // equal a direct count — query it through candidateBounds' plumbing by
      // comparing against SQL over the coordinate range.
      for (_ <- 1 to 5) {
        val i0 = rng.nextInt(g); val i1 = i0 + 1 + rng.nextInt(g - i0)
        val j0 = rng.nextInt(g); val j1 = j0 + 1 + rng.nextInt(g - j0)
        val xLo = idx.space.x0 + i0 * idx.cw; val xHi = idx.space.x0 + i1 * idx.cw
        val yLo = idx.space.y0 + j0 * idx.ch; val yHi = idx.space.y0 + j1 * idx.ch
        // via the public API: a "candidate" whose bounding region is exactly
        // this range is awkward; test the underlying invariant instead:
        // count in the range = Σ cells = direct SQL count with half-open
        // coordinate predicates (mirroring the build's floor assignment).
        val xHiPred = if (i1 == idx.sx) s"CAST(x AS DOUBLE) <= ${idx.space.x1}"
                      else s"CAST(x AS DOUBLE) < $xHi"
        val yHiPred = if (j1 == idx.sy) s"CAST(y AS DOUBLE) <= ${idx.space.y1}"
                      else s"CAST(y AS DOUBLE) < $yHi"
        val sql = TestGen.Cats.zipWithIndex.map { case (c, k) =>
          s"(SELECT COUNT(*) FROM t WHERE CAST(x AS DOUBLE) >= $xLo AND $xHiPred " +
          s"AND CAST(y AS DOUBLE) >= $yLo AND $yHiPred AND cat = '$c') AS c$k"
        }.mkString("SELECT ", ", ", "")
        val viaIndex = idx.distRangeCounts(0, i0, i1, j0, j1).map(math.round)
        import spark.implicits._
        val sparkDf = Seq(viaIndex.toSeq).toDF("v")
          .selectExpr(TestGen.Cats.indices.map(k => s"CAST(v[$k] AS BIGINT) AS c$k"): _*)
        Oracle.assertEquivalent(sparkDf, sql, "t" -> data)
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
        val cell = idx.cellBox(ci, cj)
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
