package repro.core

import org.apache.spark.sql.DataFrame

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

  /** Driver build from one snapshot of the objects: every object is binned
    * into its index cell and its statistic columns added there, then each
    * table is turned into 2-D suffix sums. The snapshot is a query's
    * [[LocalRects]] for any `a×b`, whose upper corners are the objects.
    */
  def build(objects: DataFrame, spec: CompositeAggregator, sx: Int, sy: Int): GridIndex = {
    val lr = Rects.local(objects, 1.0, 1.0, spec)
    require(lr.n > 0, "GridIndex.build: no objects to index (empty input)")
    val xs = lr.xhi; val ys = lr.yhi
    val x0 = xs.min; val y0 = ys.min; val maxX = xs.max; val maxY = ys.max
    val space = Box(x0, y0, math.max(maxX, x0 + 1e-9), math.max(maxY, y0 + 1e-9))
    val cw = space.width / sx; val ch = space.height / sy
    val cell = Array.tabulate(lr.n) { r =>
      math.min(sx - 1, math.floor((xs(r) - x0) / cw).toInt) * (sy + 1) +
        math.min(sy - 1, math.floor((ys(r) - y0) / ch).toInt)
    }

    // Each object's statistic columns into its cell of each table, laid out
    // [i * (sy+1) + j].
    val width = spec.aggs.map { case d: DistAgg => d.domain.size; case _ => 2 }
    val tables = Array.fill(width.sum)(new Array[Double]((sx + 1) * (sy + 1)))
    val extremes = Array.fill(spec.aggs.size)((0.0, 0.0))
    val all = Array.range(0, lr.n)
    var k = 0 // aggregator i's first statistic column
    spec.aggs.zipWithIndex.foreach { case (agg, i) =>
      agg match {
        case _: DistAgg =>
          val idx = lr.distIdx(i)
          all.foreach(r => if (idx(r) >= 0) tables(k + idx(r))(cell(r)) += 1.0)
        case _: AvgAgg =>
          val v = lr.numVal(i); val sel = all.filter(lr.numSel(i)(_))
          sel.foreach { r => tables(k)(cell(r)) += 1.0; tables(k + 1)(cell(r)) += v(r) }
          if (sel.nonEmpty) { val vs = sel.map(v); extremes(i) = (vs.min, vs.max) }
        case _: SumAgg =>
          val v = lr.numVal(i)
          all.filter(lr.numSel(i)(_)).foreach { r =>
            if (v(r) > 0) tables(k)(cell(r)) += v(r) else if (v(r) < 0) tables(k + 1)(cell(r)) += v(r)
          }
      }
      k += width(i)
    }

    // Suffix sums S[i][j] += S[i+1][j] + S[i][j+1] − S[i+1][j+1].
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

    new GridIndex(space, sx, sy, spec, tables, extremes, lr.n.toLong, maxX, maxY)
  }
}
