package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Function Discretize (§4.3): lay an `ncol×nrow` grid over a space and
  * give every cell the statistics of its fully-covering (clean contribution)
  * and partially-covering (dirty bound) rectangle sets, as one
  * [[CellStats]] slot per cell (`grid.flat(i, j)`). Cells no rectangle
  * touches read as empty clean cells.
  *
  * Two equivalent paths (asserted equal in tests):
  *   - [[local]]: the grid loop over a query's collected [[LocalRects]];
  *     DS-Search discretizes every space with it (DESIGN.md §2).
  *   - [[spark]]: each rectangle is exploded to the cell indices it covers
  *     and one `groupBy(ci, cj)` with conditional aggregates computes all
  *     statistics. No solver calls it: it stays as the distributed twin the
  *     tests compare [[local]] against and perfbench's traced run times.
  */
object Discretize {

  def spark(rects: DataFrame, grid: Grid, spec: CompositeAggregator): CellStats = {
    val s = grid.space
    val overlapping = rects.where(
      col("xlo") < s.x1 && col("xhi") > s.x0 && col("ylo") < s.y1 && col("yhi") > s.y0)

    // Index ranges — formulas mirror Grid.idxRange exactly (same double ops)
    // so the two discretizer paths classify identically.
    def rangeCols(lo: String, hi: String, origin: Double, step: Double, n: Int) = {
      val aRaw = floor((col(lo) - origin) / step).cast("int")
      val a    = when(lit(origin) + (aRaw + 1).cast("double") * step <= col(lo), aRaw + 1)
                   .otherwise(aRaw)
      val bRaw = ceil((col(hi) - origin) / step).cast("int") - 1
      val b    = when(lit(origin) + bRaw.cast("double") * step >= col(hi), bRaw - 1)
                   .otherwise(bRaw)
      (greatest(a, lit(0)), least(b, lit(n - 1)))
    }
    val (ciLo, ciHi) = rangeCols("xlo", "xhi", s.x0, grid.cw, grid.ncol)
    val (cjLo, cjHi) = rangeCols("ylo", "yhi", s.y0, grid.ch, grid.nrow)

    val exploded = overlapping
      .withColumn("ciLo", ciLo).withColumn("ciHi", ciHi)
      .withColumn("cjLo", cjLo).withColumn("cjHi", cjHi)
      .where(col("ciLo") <= col("ciHi") && col("cjLo") <= col("cjHi"))
      .withColumn("ci", explode(sequence(col("ciLo"), col("ciHi"))))
      .withColumn("cj", explode(sequence(col("cjLo"), col("cjHi"))))

    val cellX0 = lit(s.x0) + col("ci").cast("double") * grid.cw
    val cellY0 = lit(s.y0) + col("cj").cast("double") * grid.ch
    val full = col("xlo") <= cellX0 && cellX0 + grid.cw <= col("xhi") &&
               col("ylo") <= cellY0 && cellY0 + grid.ch <= col("yhi")

    val aggCols = coalesce(sum(when(!full, 1L)), lit(0L)).as("npartial") +:
      Agg.rawStatExprs(spec, full)

    // Row: ci, cj, npartial, then the statistics in the slot layout.
    val cs = new CellStats(spec, grid.cells)
    exploded
      .groupBy(col("ci"), col("cj"))
      .agg(aggCols.head, aggCols.tail: _*)
      .collect()
      .foreach { row =>
        val slot = grid.flat(row.getInt(0), row.getInt(1))
        cs.nPartial(slot) = row.getLong(2).toInt
        var k = 0
        while (k < cs.width) {
          cs.raw(slot * cs.width + k) = row.get(3 + k) match {
            case null      => Double.NaN // min/max over no partial cover
            case l: Long   => l.toDouble
            case d: Double => d
          }
          k += 1
        }
      }
    cs
  }

  /** Driver-local twin of [[spark]] over the rectangles `idxs` of `lr`. */
  def local(lr: LocalRects, idxs: Array[Int], grid: Grid, spec: CompositeAggregator): CellStats = {
    val cs = new CellStats(spec, grid.cells)
    idxs.foreach { r =>
      val (ciLo, ciHi) = grid.colRange(lr.xlo(r), lr.xhi(r))
      val (cjLo, cjHi) = grid.rowRange(lr.ylo(r), lr.yhi(r))
      var cj = cjLo
      while (cj <= cjHi) {
        var ci = ciLo
        while (ci <= ciHi) {
          val cx0 = grid.space.x0 + ci * grid.cw
          val cy0 = grid.space.y0 + cj * grid.ch
          val full = lr.xlo(r) <= cx0 && cx0 + grid.cw <= lr.xhi(r) &&
                     lr.ylo(r) <= cy0 && cy0 + grid.ch <= lr.yhi(r)
          cs.add(grid.flat(ci, cj), lr, r, full, 1)
          ci += 1
        }
        cj += 1
      }
    }
    cs
  }
}
