package repro.perfbench

import scala.io.Source

/** Recorded data fingerprints (`count Σx Σy Σvisits`) of `SynthData.pois`
  * on the 2⁻¹⁰ lattice, per size `n` and data seed, in `fingerprints.tsv`
  * on the classpath. A run whose data is listed fails when its objects
  * differ: the data must not depend on the machine.
  */
object Fingerprints {
  private lazy val recorded: Map[(Long, Long), Seq[String]] = {
    val in = getClass.getResourceAsStream("/fingerprints.tsv")
    if (in == null) Map.empty
    else try Source.fromInputStream(in, "UTF-8").getLines()
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
      .map(_.split("\\s+")).map(f => (f(0).toLong, f(1).toLong) -> f.drop(2).toSeq).toMap
    finally in.close()
  }

  def check(n: Long, dataSeed: Long, fp: Seq[String]): Unit =
    recorded.get((n, dataSeed)).foreach { want =>
      if (want != fp) throw new IllegalStateException(
        s"fingerprint of n=$n data seed $dataSeed is ${fp.mkString(" ")}, recorded ${want.mkString(" ")}")
    }
}
