package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Function Discretize (§4.3): lay an `ncol×nrow` grid over a space and
  * produce, per cell, the raw statistics of its fully-covering (clean
  * contribution) and partially-covering (dirty bound) rectangle sets.
  *
  * Two equivalent paths (asserted identical in tests):
  *   - [[local]]: the accumulation over a query's collected [[LocalRects]];
  *     DS-Search discretizes every space with it (DESIGN.md §2).
  *   - [[spark]]: each rectangle is exploded to the cell indices it covers
  *     and one `groupBy(ci, cj)` with conditional aggregates computes all
  *     statistics. No solver calls it: it stays as the distributed twin the
  *     tests compare [[local]] against and perfbench's traced run times.
  *
  * Cells covered by no rectangle are absent from the output; callers treat
  * them as empty clean cells ([[CellStats.empty]]).
  */
object Discretize {

  def spark(rects: DataFrame, grid: Grid, spec: CompositeAggregator): Array[CellRaw] = {
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

    exploded
      .groupBy(col("ci"), col("cj"))
      .agg(aggCols.head, aggCols.tail: _*)
      .collect()
      .map { row =>
        CellRaw(row.getAs[Int]("ci"), row.getAs[Int]("cj"),
                row.getAs[Long]("npartial"), CellStats.parseRow(row, spec))
      }
  }

  /** Driver-local twin of [[spark]] over the rectangles `idxs` of `lr`. */
  def local(lr: LocalRects, idxs: Array[Int], grid: Grid, spec: CompositeAggregator): Array[CellRaw] = {
    val cells = grid.cells
    val (distSlot, numSlot) = LocalRects.slots(spec)
    val nPartial = new Array[Long](cells)
    val touched  = new Array[Boolean](cells)

    // Per-aggregator accumulators, indexed [aggPos][cell(*dim)].
    val distFull = spec.aggs.map { case d: DistAgg => new Array[Long](cells * d.dim); case _ => null }
    val distPart = spec.aggs.map { case d: DistAgg => new Array[Long](cells * d.dim); case _ => null }
    val fCnt = spec.aggs.map { case _: AvgAgg => new Array[Long](cells); case _ => null }
    val fSum = spec.aggs.map { a => if (a.isInstanceOf[AvgAgg] || a.isInstanceOf[SumAgg]) new Array[Double](cells) else null }
    val pCnt = spec.aggs.map { case _: AvgAgg => new Array[Long](cells); case _ => null }
    val pMin = spec.aggs.map { case _: AvgAgg => Array.fill(cells)(Double.NaN); case _ => null }
    val pMax = spec.aggs.map { case _: AvgAgg => Array.fill(cells)(Double.NaN); case _ => null }
    val pPos = spec.aggs.map { case _: SumAgg => new Array[Double](cells); case _ => null }
    val pNeg = spec.aggs.map { case _: SumAgg => new Array[Double](cells); case _ => null }

    idxs.foreach { r =>
      val (ciLo, ciHi) = grid.colRange(lr.xlo(r), lr.xhi(r))
      val (cjLo, cjHi) = grid.rowRange(lr.ylo(r), lr.yhi(r))
      var cj = cjLo
      while (cj <= cjHi) {
        var ci = ciLo
        while (ci <= ciHi) {
          val cell = grid.flat(ci, cj)
          touched(cell) = true
          val cx0 = grid.space.x0 + ci * grid.cw
          val cy0 = grid.space.y0 + cj * grid.ch
          val isFull = lr.xlo(r) <= cx0 && cx0 + grid.cw <= lr.xhi(r) &&
                       lr.ylo(r) <= cy0 && cy0 + grid.ch <= lr.yhi(r)
          if (!isFull) nPartial(cell) += 1
          var i = 0
          while (i < spec.aggs.size) {
            spec.aggs(i) match {
              case d: DistAgg =>
                val j = lr.distIdx(distSlot(i))(r)
                if (j >= 0) {
                  if (isFull) distFull(i)(cell * d.dim + j) += 1
                  else distPart(i)(cell * d.dim + j) += 1
                }
              case _: AvgAgg =>
                val m = numSlot(i)
                if (lr.numSel(m)(r)) {
                  val v = lr.numVal(m)(r)
                  if (isFull) { fCnt(i)(cell) += 1; fSum(i)(cell) += v }
                  else {
                    pCnt(i)(cell) += 1
                    if (pMin(i)(cell).isNaN || v < pMin(i)(cell)) pMin(i)(cell) = v
                    if (pMax(i)(cell).isNaN || v > pMax(i)(cell)) pMax(i)(cell) = v
                  }
                }
              case _: SumAgg =>
                val m = numSlot(i)
                if (lr.numSel(m)(r)) {
                  val v = lr.numVal(m)(r)
                  if (isFull) fSum(i)(cell) += v
                  else if (v > 0) pPos(i)(cell) += v
                  else if (v < 0) pNeg(i)(cell) += v
                }
            }
            i += 1
          }
          ci += 1
        }
        cj += 1
      }
    }

    val out = Array.newBuilder[CellRaw]
    var cell = 0
    while (cell < cells) {
      if (touched(cell)) {
        val stats: Array[AggStat] = spec.aggs.zipWithIndex.map {
          case (d: DistAgg, i) =>
            DistStat(Array.tabulate(d.dim)(j => distFull(i)(cell * d.dim + j)),
                     Array.tabulate(d.dim)(j => distPart(i)(cell * d.dim + j)))
          case (_: AvgAgg, i) =>
            AvgStat(fCnt(i)(cell), fSum(i)(cell), pCnt(i)(cell), pMin(i)(cell), pMax(i)(cell))
          case (_: SumAgg, i) =>
            SumStat(fSum(i)(cell), pPos(i)(cell), pNeg(i)(cell))
        }.toArray
        out += CellRaw(cell % grid.ncol, cell / grid.ncol, nPartial(cell), stats)
      }
      cell += 1
    }
    out.result()
  }
}
