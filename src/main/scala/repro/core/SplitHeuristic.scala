package repro.core

/** Function Split (§4.4): partition the surviving dirty cells into two
  * seed-grown groups and return each group's MBR with its best cell bound.
  *
  * The seeds are the extremes of the cell centres' projection on the dirty
  * cells' MBR diagonal, two cells "far from each other" as the paper asks;
  * the remaining cells are added to the group whose MBR grows least (ties →
  * group 1, mirroring the paper's `cost1 > cost2 → G2 else G1`).
  */
object SplitHeuristic {

  /** A box and a lower bound on every point in it: a dirty cell going into
    * Split, a group's MBR or a piece of one coming out.
    */
  final case class Part(box: Box, bound: Double)

  /** The groups of `cells`, each bisected until it is at most 0.45× the area
    * of `parent`, the space the cells were harvested from.
    */
  def split(cells: IndexedSeq[Part], parent: Box): Seq[Part] =
    groups(cells).flatMap(progress(_, 0.45 * parent.area))

  private def groups(cells: IndexedSeq[Part]): Seq[Part] = {
    if (cells.isEmpty) return Nil
    if (cells.size == 1) return Seq(cells.head)

    val mbr = cells.view.map(_.box).reduce(_ union _)
    val dx = math.max(mbr.width, 1e-12); val dy = math.max(mbr.height, 1e-12)
    var s1 = 0; var s2 = 1
    var lo = Double.MaxValue; var hi = Double.MinValue
    var i = 0
    while (i < cells.size) {
      val proj = cells(i).box.centerX * dx + cells(i).box.centerY * dy
      if (proj < lo) { lo = proj; s1 = i }
      if (proj > hi) { hi = proj; s2 = i }
      i += 1
    }
    if (s1 == s2) s2 = (s1 + 1) % cells.size

    var mbr1 = cells(s1).box; var mbr2 = cells(s2).box
    var b1 = cells(s1).bound; var b2 = cells(s2).bound
    i = 0
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
    Seq(Part(mbr1, b1), Part(mbr2, b2))
  }

  /** Termination/progress safeguard (DESIGN.md §3). When every cell is
    * dirty, both group MBRs can stay ≈ the parent, and re-discretizing two
    * such overlapping children per level blows up exponentially; the paper
    * does not guard against it. Bisecting a group along its longer axis until
    * its area is at most `limit` makes space sizes decay geometrically (O(log)
    * depth to the drop condition) and covers the same dirty cells, so the
    * search stays exact.
    */
  private def progress(part: Part, limit: Double): Seq[Part] = {
    val m = part.box
    if (m.area <= limit || m.area <= 0) Seq(part)
    else {
      val halves =
        if (m.width >= m.height) Seq(Box(m.x0, m.y0, m.centerX, m.y1), Box(m.centerX, m.y0, m.x1, m.y1))
        else Seq(Box(m.x0, m.y0, m.x1, m.centerY), Box(m.x0, m.centerY, m.x1, m.y1))
      halves.flatMap(h => progress(Part(h, part.bound), limit))
    }
  }
}
