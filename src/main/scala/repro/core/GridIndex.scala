package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The §5 grid index: a query-independent `sx×sy` grid over the objects with
  * per-cell *attribute summary tables*, stored as 2-D suffix aggregates so
  * that any upper-right range `G[∞..i][∞..j]` — and via the 4-corner
  * inclusion–exclusion of Lemma 8 any cell range — is answered in O(1).
  *
  * One suffix table per statistic column, in aggregator order: an f_D
  * aggregator has one count per domain value, an f_A one its selected count
  * then sum, an f_S one its positive then negative sum. `extremes` holds each
  * f_A aggregator's global min/max over its selected values (0.0 when none is
  * selected; range min/max is not inclusion–exclusion-invertible — DESIGN.md
  * §3), indexed by aggregator position.
  *
  * `n`, `maxX` and `maxY` (object count, largest x and y) identify the data
  * the index was built from; [[GIDS]] rejects a query over other data.
  */
final class GridIndex(
    val space: Box, val sx: Int, val sy: Int,
    val spec: CompositeAggregator,
    tables: Array[Array[Double]],
    extremes: Array[(Double, Double)],
    val n: Long, val maxX: Double, val maxY: Double) {

  /** The index cells' geometry. */
  val grid: Grid = Grid(space, sx, sy)
  private val aggs = spec.aggs.toArray

  /** Lemma 8: statistic column `k` summed over the object cells
    * `[i0, i1) × [j0, j1)`, from four suffix-table lookups.
    */
  def range(k: Int, i0: Int, i1: Int, j0: Int, j1: Int): Double = {
    val a = math.min(math.max(i0, 0), sx); val b = math.min(math.max(i1, 0), sx)
    val c = math.min(math.max(j0, 0), sy); val d = math.min(math.max(j1, 0), sy)
    if (a >= b || c >= d) return 0.0
    val s = tables(k)
    def at(i: Int, j: Int) = s(i * (sy + 1) + j)
    at(a, c) - at(b, c) - at(a, d) + at(b, d)
  }

  /** Cell ranges of the *bounded* (⊆ every candidate) and *bounding*
    * (⊇ every candidate) regions for candidate `a×b` regions whose
    * bottom-left corner lies in index cell `(ci, cj)` (§5.3). Returns
    * `((loI0,loI1,loJ0,loJ1), (hiI0,hiI1,hiJ0,hiJ1))`, end-exclusive.
    */
  def candidateRanges(ci: Int, cj: Int, a: Double, b: Double): ((Int, Int, Int, Int), (Int, Int, Int, Int)) = {
    val cw = grid.cw; val ch = grid.ch
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
    * in index cell `(ci, cj)` (§5.3), ready for Eq. 1 / `MinDistance.bound`.
    */
  def candidateBounds(ci: Int, cj: Int, a: Double, b: Double): (Array[Double], Array[Double]) = {
    val ((li0, li1, lj0, lj1), (hi0, hi1, hj0, hj1)) = candidateRanges(ci, cj, a, b)
    def inner(k: Int) = range(k, li0, li1, lj0, lj1)
    def outer(k: Int) = range(k, hi0, hi1, hj0, hj1)
    val lo = new Array[Double](spec.dim); val hi = new Array[Double](spec.dim)
    var o = 0 // feature dimension
    var k = 0 // statistic column
    var i = 0 // aggregator
    while (i < aggs.length) {
      aggs(i) match {
        case d: DistAgg =>
          d.domain.indices.foreach { _ =>
            lo(o) = inner(k); hi(o) = outer(k)
            o += 1; k += 1
          }
        case _: AvgAgg =>
          val cG = inner(k); val sG = inner(k + 1); val cUp = outer(k)
          val (gmin, gmax) = extremes(i)
          if (cUp == 0) { lo(o) = 0.0; hi(o) = 0.0 }
          else if (cG > 0) { val avgG = sG / cG; lo(o) = math.min(avgG, gmin); hi(o) = math.max(avgG, gmax) }
          else { lo(o) = math.min(0.0, gmin); hi(o) = math.max(0.0, gmax) }
          o += 1; k += 2
        case _: SumAgg =>
          val pG = inner(k); val nG = inner(k + 1); val pU = outer(k); val nU = outer(k + 1)
          lo(o) = (pG + nG) + (nU - nG) // guaranteed sum + worst remaining negatives
          hi(o) = (pG + nG) + (pU - pG)
          o += 1; k += 2
      }
      i += 1
    }
    (lo, hi)
  }

  /** Bytes held by the suffix tables (reported as "index size" in Table 1). */
  def sizeBytes: Long = tables.map(_.length.toLong).sum * 8L
}

object GridIndex {

  /** Distributed build in two Spark queries: the bounding box, object count and
    * f_A extremes in one aggregate; then every object assigned to its index
    * cell and one `groupBy(si, sj)` computing all statistic columns, whose
    * ≤ sx·sy rows are accumulated into the 2-D suffix tables on the driver.
    */
  def build(objects: DataFrame, spec: CompositeAggregator, sx: Int, sy: Int): GridIndex = {
    val prepared = Agg.prepare(objects, spec)
    val avgs = spec.aggs.indices.filter(i => spec.aggs(i).isInstanceOf[AvgAgg])
    val extremeCols = avgs.flatMap { i =>
      val selected = when(col(s"a${i}_sel"), col(s"a${i}_val"))
      Seq(min(selected), max(selected))
    }
    val bb = prepared.agg(min("x"), Seq(min("y"), max("x"), max("y"), count(lit(1))) ++ extremeCols: _*)
      .collect()(0)
    require(!bb.isNullAt(0), "GridIndex.build: no objects to index (empty input)")
    val space = Box(bb.getDouble(0), bb.getDouble(1),
                    math.max(bb.getDouble(2), bb.getDouble(0) + 1e-9),
                    math.max(bb.getDouble(3), bb.getDouble(1) + 1e-9))
    def orZero(c: Int) = if (bb.isNullAt(c)) 0.0 else bb.getDouble(c)
    val extremes = Array.fill(spec.aggs.size)((0.0, 0.0))
    avgs.zipWithIndex.foreach { case (i, m) => extremes(i) = (orZero(5 + 2 * m), orZero(6 + 2 * m)) }

    val cw = space.width / sx; val ch = space.height / sy
    val si = least(lit(sx - 1), floor((col("x") - space.x0) / cw).cast("int"))
    val sj = least(lit(sy - 1), floor((col("y") - space.y0) / ch).cast("int"))
    def total(c: Column) = coalesce(sum(c), lit(0.0))
    val statCols = spec.aggs.zipWithIndex.flatMap { case (agg, i) =>
      val sel = col(s"a${i}_sel"); val v = col(s"a${i}_val")
      agg match {
        case DistAgg(_, dom, _) => dom.indices.map(j => total(when(col(s"a${i}_idx") === j, 1.0)))
        case _: AvgAgg => Seq(total(when(sel, 1.0)), total(when(sel, v)))
        case _: SumAgg => Seq(total(when(sel && v > 0, v)), total(when(sel && v < 0, v)))
      }
    }
    val rows = prepared
      .withColumn("si", si).withColumn("sj", sj)
      .groupBy(col("si"), col("sj"))
      .agg(statCols.head, statCols.tail: _*)
      .collect()

    // Column by column into the tables, laid out [i * (sy+1) + j]; then the
    // suffix sums S[i][j] += S[i+1][j] + S[i][j+1] − S[i+1][j+1].
    val tables = Array.fill(statCols.size)(new Array[Double]((sx + 1) * (sy + 1)))
    rows.foreach { r =>
      val cell = r.getInt(0) * (sy + 1) + r.getInt(1)
      var k = 0
      while (k < tables.length) { tables(k)(cell) += r.getDouble(2 + k); k += 1 }
    }
    tables.foreach { s =>
      var i = sx - 1
      while (i >= 0) {
        var j = sy - 1
        while (j >= 0) {
          s(i * (sy + 1) + j) += s((i + 1) * (sy + 1) + j) + s(i * (sy + 1) + j + 1) - s((i + 1) * (sy + 1) + j + 1)
          j -= 1
        }
        i -= 1
      }
    }

    new GridIndex(space, sx, sy, spec, tables, extremes, bb.getLong(4), bb.getDouble(2), bb.getDouble(3))
  }
}
