package repro.core

/** Function Split (§4.4): partition the surviving dirty cells into two
  * seed-grown groups and return each group's MBR with its best cell bound.
  *
  * Seeds are the two cells farthest apart (center distance); the remaining
  * cells are added to the group whose MBR grows least (ties → group 1,
  * mirroring the paper's `cost1 > cost2 → G2 else G1`).
  */
object SplitHeuristic {

  /** A dirty cell surviving pruning: its box and its lower bound. */
  final case class DirtyCell(box: Box, bound: Double)

  final case class Child(mbr: Box, bound: Double)

  def split(cells: IndexedSeq[DirtyCell]): Seq[Child] = {
    if (cells.isEmpty) return Nil
    if (cells.size == 1) return Seq(Child(cells.head.box, cells.head.bound))

    // Farthest pair of cell centers. Exact O(k²) for small k; for large k a
    // linear surrogate (extremes along the MBR's principal diagonal) keeps
    // Split from dominating DS-Search — the paper only asks for two cells
    // "that are far from each other".
    var s1 = 0; var s2 = 1
    if (cells.size <= 64) {
      var best = -1.0
      var i = 0
      while (i < cells.size) {
        var j = i + 1
        while (j < cells.size) {
          val dx = cells(i).box.centerX - cells(j).box.centerX
          val dy = cells(i).box.centerY - cells(j).box.centerY
          val d = dx * dx + dy * dy
          if (d > best) { best = d; s1 = i; s2 = j }
          j += 1
        }
        i += 1
      }
    } else {
      val mbr = cells.view.map(_.box).reduce(_ union _)
      val dx = math.max(mbr.width, 1e-12); val dy = math.max(mbr.height, 1e-12)
      var lo = Double.MaxValue; var hi = Double.MinValue
      var i = 0
      while (i < cells.size) {
        val proj = cells(i).box.centerX * dx + cells(i).box.centerY * dy
        if (proj < lo) { lo = proj; s1 = i }
        if (proj > hi) { hi = proj; s2 = i }
        i += 1
      }
      if (s1 == s2) s2 = (s1 + 1) % cells.size
    }

    var mbr1 = cells(s1).box; var mbr2 = cells(s2).box
    var b1 = cells(s1).bound; var b2 = cells(s2).bound
    var i = 0
    while (i < cells.size) {
      if (i != s1 && i != s2) {
        val c = cells(i)
        val cost1 = mbr1.union(c.box).area - mbr1.area
        val cost2 = mbr2.union(c.box).area - mbr2.area
        if (cost1 > cost2) {
          mbr2 = mbr2.union(c.box)
          if (c.bound < b2) b2 = c.bound
        } else {
          mbr1 = mbr1.union(c.box)
          if (c.bound < b1) b1 = c.bound
        }
      }
      i += 1
    }
    Seq(Child(mbr1, b1), Child(mbr2, b2))
  }

  /** Termination/progress safeguard (DESIGN.md §3). On adversarial inputs
    * both group MBRs can stay ≈ the parent (all cells dirty), shrinking by
    * only one cell row per level; re-discretizing two near-parent-sized,
    * heavily overlapping children per level is an exponential blowup the
    * paper does not guard against. We therefore bisect any child along its
    * longer axis until its area is below 0.45× the parent's, guaranteeing
    * geometric decay of space sizes (and hence O(log) depth to the drop
    * condition) without affecting exactness — a space partition covers the
    * same dirty cells.
    */
  def ensureProgress(child: Child, parent: Box): Seq[Child] = {
    val limit = 0.45 * parent.area
    if (child.mbr.area <= limit || child.mbr.area <= 0) Seq(child)
    else {
      val m = child.mbr
      val halves =
        if (m.width >= m.height) {
          val mid = m.centerX
          Seq(Box(m.x0, m.y0, mid, m.y1), Box(mid, m.y0, m.x1, m.y1))
        } else {
          val mid = m.centerY
          Seq(Box(m.x0, m.y0, m.x1, mid), Box(m.x0, mid, m.x1, m.y1))
        }
      halves.flatMap(h => ensureProgress(Child(h, child.bound), parent))
    }
  }
}
