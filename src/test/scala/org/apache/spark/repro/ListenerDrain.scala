package org.apache.spark.repro

import org.apache.spark.SparkContext

/** The listener bus is asynchronous: a listener read right after a job
  * returns can miss that job's events. `SparkContext.listenerBus` is
  * `private[spark]`, hence this bridge inside Spark's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(10000L)
}
