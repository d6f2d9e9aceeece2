package repro.core

/** Raw per-aggregator statistics of `slots` slots (grid cells, or the one
  * point of a sweep or a brute-force probe): what the fully-covering
  * rectangle set contributes exactly, plus what the partially-covering set
  * could add (Function Discretize, §4.3). The one Scala copy of a cell's
  * f_D/f_A/f_S semantics ([[GridIndex]] bounds index cells its own way).
  *
  * Slot `s`'s statistics are `raw(s·width + offsets(i) + k)`, per aggregator
  * `i` in the column order of [[Agg.rawStatExprs]]:
  *   - f_D: `(full_j, part_j)` for each domain value `j`;
  *   - f_A: full count, full sum, partial count, partial min, partial max
  *     (min/max NaN when there is no partial);
  *   - f_S: full sum, positive partial sum, negative partial sum.
  *
  * A slot no rectangle touched reads as the empty clean region.
  */
final class CellStats(val spec: CompositeAggregator, val slots: Int) {
  import CellStats._

  private val kinds: Array[Int] = spec.aggs.map {
    case _: DistAgg => Dist; case _: AvgAgg => Avg; case _: SumAgg => Sum
  }.toArray
  private val dims: Array[Int] = spec.aggs.map(_.dim).toArray

  /** Start of aggregator `i`'s statistics inside a slot. */
  val offsets: Array[Int] = spec.aggs.map {
    case d: DistAgg => 2 * d.dim; case _: AvgAgg => 5; case _: SumAgg => 3
  }.scanLeft(0)(_ + _).toArray
  val width: Int = offsets.last

  val raw: Array[Double] = new Array[Double](slots * width)
  /** Number of partially-covering rectangles per slot (dirty iff > 0). */
  val nPartial: Array[Int] = new Array[Int](slots)

  for (i <- kinds.indices if kinds(i) == Avg; s <- 0 until slots) {
    raw(s * width + offsets(i) + 3) = Double.NaN; raw(s * width + offsets(i) + 4) = Double.NaN
  }

  def isDirty(slot: Int): Boolean = nPartial(slot) > 0

  /** Add rectangle `r` of `lr` to `slot` as a full or a partial cover. A
    * `sign` of −1 removes an earlier full cover (sweeps); partial covers
    * are only ever added.
    */
  def add(slot: Int, lr: LocalRects, r: Int, full: Boolean, sign: Int): Unit = {
    if (!full) nPartial(slot) += 1
    val base = slot * width
    var i = 0
    while (i < kinds.length) {
      val b = base + offsets(i)
      if (kinds(i) == Dist) {
        val j = lr.distIdx(i)(r)
        if (j >= 0) raw(b + 2 * j + (if (full) 0 else 1)) += sign
      } else if (lr.numSel(i)(r)) {
        val v = lr.numVal(i)(r)
        if (kinds(i) == Avg) {
          if (full) { raw(b) += sign; raw(b + 1) += sign * v }
          else {
            raw(b + 2) += 1
            if (raw(b + 3).isNaN || v < raw(b + 3)) raw(b + 3) = v
            if (raw(b + 4).isNaN || v > raw(b + 4)) raw(b + 4) = v
          }
        } else {
          if (full) raw(b) += sign * v
          else if (v > 0) raw(b + 1) += v
          else if (v < 0) raw(b + 2) += v
        }
      }
      i += 1
    }
  }

  /** Exact representation of a clean slot into `out`: the aggregates of its
    * full covers (avg(∅) := 0).
    */
  def exact(slot: Int, out: Array[Double]): Unit = {
    val base = slot * width
    var i = 0; var o = 0
    while (i < kinds.length) {
      val b = base + offsets(i)
      kinds(i) match {
        case Dist =>
          var j = 0
          while (j < dims(i)) { out(o + j) = raw(b + 2 * j); j += 1 }
        case Avg =>
          out(o) = if (raw(b) > 0) raw(b + 1) / raw(b) else 0.0
        case _ =>
          out(o) = raw(b)
      }
      o += dims(i); i += 1
    }
  }

  /** Bounding vectors `lo ≤ v ≤ hi` of the representation of any location
    * in the slot (§4.3; f_A/f_S bounds per DESIGN.md §3).
    */
  def bounds(slot: Int, lo: Array[Double], hi: Array[Double]): Unit = {
    val base = slot * width
    var i = 0; var o = 0
    while (i < kinds.length) {
      val b = base + offsets(i)
      kinds(i) match {
        case Dist =>
          var j = 0
          while (j < dims(i)) {
            lo(o + j) = raw(b + 2 * j); hi(o + j) = raw(b + 2 * j) + raw(b + 2 * j + 1); j += 1
          }
        case Avg =>
          val avgF = if (raw(b) > 0) raw(b + 1) / raw(b) else 0.0
          if (raw(b + 2) == 0) { lo(o) = avgF; hi(o) = avgF }
          else { lo(o) = math.min(avgF, raw(b + 3)); hi(o) = math.max(avgF, raw(b + 4)) }
        case _ =>
          lo(o) = raw(b) + raw(b + 2); hi(o) = raw(b) + raw(b + 1)
      }
      o += dims(i); i += 1
    }
  }
}

object CellStats {
  private final val Dist = 0
  private final val Avg = 1
  private final val Sum = 2
}
