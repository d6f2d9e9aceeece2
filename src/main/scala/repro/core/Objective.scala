package repro.core

/** The search objective: minimize the weighted L1 distance to the query
  * representation. MaxRS (§7.5) is the same query: one sum over a constant-1
  * column ([[Rects.CountSpec]]) with target n = |O|, so a region's
  * distance is n − count and Eq. 1's bound is n − (upper count).
  */
final case class MinDistance(spec: CompositeAggregator, target: Array[Double]) {
  /** Exact score of a clean cell's representation. */
  def score(vec: Array[Double]): Double = spec.distance(vec, target)
  /** Least score over representations bounded by `lo ≤ v ≤ hi` (Eq. 1). */
  def bound(lo: Array[Double], hi: Array[Double]): Double = spec.lowerBound(lo, hi, target)
  /** Score of an object-free region, whose representation is all zeros. */
  def emptyScore: Double = score(new Array[Double](spec.dim))
}
