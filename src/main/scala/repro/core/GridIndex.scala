package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The §5 grid index: a query-independent `sx×sy` grid over the objects with
  * per-cell *attribute summary tables*, stored as 2-D suffix aggregates so
  * that any upper-right range `G[∞..i][∞..j]` — and via the 4-corner
  * inclusion–exclusion of Lemma 8 any cell range — is answered in O(1).
  *
  * Per aggregator we keep what the candidate-region bounds of §5.3 need:
  * f_D per-value counts; f_A selected count+sum plus the global attribute
  * min/max (range min/max is not inclusion-exclusion-invertible — DESIGN.md
  * §3); f_S positive/negative sums.
  *
  * `n`, `maxX` and `maxY` (object count, largest x and y) identify the data
  * the index was built from; [[GIDS]] rejects a query over other data.
  */
final class GridIndex(
    val space: Box, val sx: Int, val sy: Int,
    val spec: CompositeAggregator,
    stats: Array[GridIndex.IdxStat],
    val n: Long, val maxX: Double, val maxY: Double) {

  val cw: Double = space.width / sx
  val ch: Double = space.height / sy

  def cellBox(ci: Int, cj: Int): Box =
    Box(space.x0 + ci * cw, space.y0 + cj * ch, space.x0 + (ci + 1) * cw, space.y0 + (cj + 1) * ch)

  /** Lemma 8: aggregate over the object cells `[i0, i1) × [j0, j1)`. */
  private def range(s: Array[Double], i0: Int, i1: Int, j0: Int, j1: Int): Double = {
    val a = math.min(math.max(i0, 0), sx); val b = math.min(math.max(i1, 0), sx)
    val c = math.min(math.max(j0, 0), sy); val d = math.min(math.max(j1, 0), sy)
    if (a >= b || c >= d) return 0.0
    def at(i: Int, j: Int) = s(i * (sy + 1) + j)
    at(a, c) - at(b, c) - at(a, d) + at(b, d)
  }

  /** Lemma 8, public surface: per-domain-value counts of f_D aggregator
    * `aggIdx` over the object cells `[i0, i1) × [j0, j1)` — four suffix-table
    * lookups per value.
    */
  def distRangeCounts(aggIdx: Int, i0: Int, i1: Int, j0: Int, j1: Int): Array[Double] =
    stats(aggIdx) match {
      case GridIndex.DistIdx(cnt) => cnt.map(s => range(s, i0, i1, j0, j1))
      case other => throw new IllegalArgumentException(s"aggregator $aggIdx is $other, not f_D")
    }

  /** Cell ranges of the *bounded* (⊆ every candidate) and *bounding*
    * (⊇ every candidate) regions for candidate `a×b` regions whose
    * bottom-left corner lies in index cell `(ci, cj)` (§5.3). Returns
    * `((loI0,loI1,loJ0,loJ1), (hiI0,hiI1,hiJ0,hiJ1))`, end-exclusive.
    */
  def candidateRanges(ci: Int, cj: Int, a: Double, b: Double): ((Int, Int, Int, Int), (Int, Int, Int, Int)) = {
    val cellX0 = space.x0 + ci * cw; val cellX1 = cellX0 + cw
    val cellY0 = space.y0 + cj * ch; val cellY1 = cellY0 + ch
    // Bounded region = cells fully inside the intersection of all candidates,
    // e.g. x-interval (cellX1, cellX0 + a); an object-cell k qualifies only if
    // every coordinate it can hold is strictly inside (boundary-exact objects
    // are NOT guaranteed — see the strict `+1` on the low side and the
    // last-cell inclusivity guard on the high side).
    // x axis
    val loI0 = math.floor((cellX1 - space.x0) / cw).toInt + 1
    var loI1 = math.floor((cellX0 + a - space.x0) / cw).toInt
    // last-cell inclusivity guard: cell sx-1 contains x = space.x1 itself
    if (loI1 >= sx && space.x0 + sx * cw >= cellX0 + a) loI1 = sx - 1
    val hiI0 = ci
    val hiI1 = math.ceil((cellX1 + a - space.x0) / cw).toInt
    // y axis
    val loJ0 = math.floor((cellY1 - space.y0) / ch).toInt + 1
    var loJ1 = math.floor((cellY0 + b - space.y0) / ch).toInt
    if (loJ1 >= sy && space.y0 + sy * ch >= cellY0 + b) loJ1 = sy - 1
    val hiJ0 = cj
    val hiJ1 = math.ceil((cellY1 + b - space.y0) / ch).toInt
    ((loI0, loI1, loJ0, loJ1), (hiI0, hiI1, hiJ0, hiJ1))
  }

  /** Bounding vectors `(v̲, v̄)` for every candidate region bottom-left-located
    * in index cell `(ci, cj)` (§5.3), ready for Eq. 1 / Objective.bound.
    */
  def candidateBounds(ci: Int, cj: Int, a: Double, b: Double): (Array[Double], Array[Double]) = {
    val ((li0, li1, lj0, lj1), (hi0, hi1, hj0, hj1)) = candidateRanges(ci, cj, a, b)
    val lo = new Array[Double](spec.dim); val hi = new Array[Double](spec.dim)
    var o = 0
    stats.foreach {
      case GridIndex.DistIdx(cnt) =>
        cnt.foreach { s =>
          lo(o) = range(s, li0, li1, lj0, lj1)
          hi(o) = range(s, hi0, hi1, hj0, hj1)
          o += 1
        }
      case GridIndex.AvgIdx(cnt, sum, gmin, gmax) =>
        val cG  = range(cnt, li0, li1, lj0, lj1)
        val sG  = range(sum, li0, li1, lj0, lj1)
        val cUp = range(cnt, hi0, hi1, hj0, hj1)
        if (cUp == 0) { lo(o) = 0.0; hi(o) = 0.0 }
        else if (cG > 0) { val avgG = sG / cG; lo(o) = math.min(avgG, gmin); hi(o) = math.max(avgG, gmax) }
        else { lo(o) = math.min(0.0, gmin); hi(o) = math.max(0.0, gmax) }
        o += 1
      case GridIndex.SumIdx(pos, neg) =>
        val pG = range(pos, li0, li1, lj0, lj1); val nG = range(neg, li0, li1, lj0, lj1)
        val pU = range(pos, hi0, hi1, hj0, hj1); val nU = range(neg, hi0, hi1, hj0, hj1)
        lo(o) = (pG + nG) + (nU - nG) // guaranteed sum + worst remaining negatives
        hi(o) = (pG + nG) + (pU - pG)
        o += 1
    }
    (lo, hi)
  }

  /** Bytes held by the suffix tables (reported as "index size" in Table 1). */
  def sizeBytes: Long = stats.map {
    case GridIndex.DistIdx(cnt)      => cnt.length.toLong * cnt.headOption.map(_.length).getOrElse(0) * 8L
    case GridIndex.AvgIdx(c, s, _, _) => (c.length + s.length).toLong * 8L
    case GridIndex.SumIdx(p, nn)      => (p.length + nn.length).toLong * 8L
  }.sum
}

object GridIndex {

  sealed trait IdxStat
  /** One suffix grid per f_D domain value. */
  final case class DistIdx(cnt: Array[Array[Double]]) extends IdxStat
  final case class AvgIdx(cnt: Array[Double], sum: Array[Double], gmin: Double, gmax: Double) extends IdxStat
  final case class SumIdx(pos: Array[Double], neg: Array[Double]) extends IdxStat

  /** Distributed build: assign every object to its index cell, one
    * `groupBy(si, sj)` computing all per-cell summaries, collect the ≤ sx·sy
    * rows, then accumulate the 2-D suffix tables on the driver.
    */
  def build(objects: DataFrame, spec: CompositeAggregator, sx: Int, sy: Int): GridIndex = {
    val prepared = Agg.prepare(objects, spec)
    val bb = prepared.agg(min("x"), min("y"), max("x"), max("y"), count(lit(1))).collect()(0)
    require(!bb.isNullAt(0), "GridIndex.build: no objects to index (empty input)")
    val space = Box(bb.getDouble(0), bb.getDouble(1),
                    math.max(bb.getDouble(2), bb.getDouble(0) + 1e-9),
                    math.max(bb.getDouble(3), bb.getDouble(1) + 1e-9))
    val cw = space.width / sx; val ch = space.height / sy

    val si = least(lit(sx - 1), floor((col("x") - space.x0) / cw).cast("int"))
    val sj = least(lit(sy - 1), floor((col("y") - space.y0) / ch).cast("int"))

    val aggCols = spec.aggs.zipWithIndex.flatMap {
      case (DistAgg(_, dom, _), i) =>
        dom.indices.map(j =>
          coalesce(sum(when(col(s"a${i}_idx") === j, 1.0)), lit(0.0)).as(s"a${i}_c$j"))
      case (_: AvgAgg, i) =>
        Seq(coalesce(sum(when(col(s"a${i}_sel"), 1.0)), lit(0.0)).as(s"a${i}_cnt"),
            coalesce(sum(when(col(s"a${i}_sel"), col(s"a${i}_val"))), lit(0.0)).as(s"a${i}_sum"))
      case (_: SumAgg, i) =>
        Seq(coalesce(sum(when(col(s"a${i}_sel") && col(s"a${i}_val") > 0, col(s"a${i}_val"))), lit(0.0)).as(s"a${i}_pos"),
            coalesce(sum(when(col(s"a${i}_sel") && col(s"a${i}_val") < 0, col(s"a${i}_val"))), lit(0.0)).as(s"a${i}_neg"))
    }
    val rows = prepared
      .withColumn("si", si).withColumn("sj", sj)
      .groupBy(col("si"), col("sj"))
      .agg(aggCols.head, aggCols.tail: _*)
      .collect()

    // Global min/max for every f_A attribute (one tiny extra job).
    val globals: Map[Int, (Double, Double)] = {
      val exprs = spec.aggs.zipWithIndex.collect { case (_: AvgAgg, i) =>
        Seq(min(when(col(s"a${i}_sel"), col(s"a${i}_val"))).as(s"g${i}_min"),
            max(when(col(s"a${i}_sel"), col(s"a${i}_val"))).as(s"g${i}_max"))
      }.flatten
      if (exprs.isEmpty) Map.empty
      else {
        val r = prepared.agg(exprs.head, exprs.tail: _*).collect()(0)
        spec.aggs.zipWithIndex.collect { case (_: AvgAgg, i) =>
          val mn = Option(r.getAs[Any](s"g${i}_min")).map(_.asInstanceOf[Double]).getOrElse(0.0)
          val mx = Option(r.getAs[Any](s"g${i}_max")).map(_.asInstanceOf[Double]).getOrElse(0.0)
          i -> (mn, mx)
        }.toMap
      }
    }

    def suffix(base: Array[Double]): Array[Double] = {
      // base laid out [i * (sy+1) + j]; accumulate S[i][j] += S[i+1][j] + S[i][j+1] − S[i+1][j+1]
      val s = base
      var i = sx - 1
      while (i >= 0) {
        var j = sy - 1
        while (j >= 0) {
          s(i * (sy + 1) + j) += s((i + 1) * (sy + 1) + j) + s(i * (sy + 1) + j + 1) - s((i + 1) * (sy + 1) + j + 1)
          j -= 1
        }
        i -= 1
      }
      s
    }
    def newGrid() = new Array[Double]((sx + 1) * (sy + 1))

    val stats: Array[IdxStat] = spec.aggs.zipWithIndex.map {
      case (DistAgg(_, dom, _), i) =>
        val grids = Array.fill(dom.size)(newGrid())
        rows.foreach { r =>
          val ci = r.getAs[Int]("si"); val cj = r.getAs[Int]("sj")
          dom.indices.foreach(j => grids(j)(ci * (sy + 1) + cj) += r.getAs[Double](s"a${i}_c$j"))
        }
        DistIdx(grids.map(suffix))
      case (_: AvgAgg, i) =>
        val cnt = newGrid(); val sm = newGrid()
        rows.foreach { r =>
          val k = r.getAs[Int]("si") * (sy + 1) + r.getAs[Int]("sj")
          cnt(k) += r.getAs[Double](s"a${i}_cnt"); sm(k) += r.getAs[Double](s"a${i}_sum")
        }
        val (gmin, gmax) = globals(i)
        AvgIdx(suffix(cnt), suffix(sm), gmin, gmax)
      case (_: SumAgg, i) =>
        val pos = newGrid(); val neg = newGrid()
        rows.foreach { r =>
          val k = r.getAs[Int]("si") * (sy + 1) + r.getAs[Int]("sj")
          pos(k) += r.getAs[Double](s"a${i}_pos"); neg(k) += r.getAs[Double](s"a${i}_neg")
        }
        SumIdx(suffix(pos), suffix(neg))
    }.toArray

    new GridIndex(space, sx, sy, spec, stats, bb.getLong(4), bb.getDouble(2), bb.getDouble(3))
  }
}
